package cluster

import (
	"fmt"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// The job registry maps a JobSpec.Query key to a builder for the job's
// map side. User MapFuncs are closures and cannot cross the socket, so
// coordinator and worker must agree out of band on what a job name
// means: both processes link the same registrations (internal/queries
// registers every query's SYMPLE mapper), and the assignment carries
// only the key plus the option knobs. cluster cannot import queries —
// queries imports cluster — which is why registration is inverted
// through this table.

// MapBuilder returns the map side of a job, bound to trace: the
// worker-side spans (map parse/exec chunks) of one assignment, which ship
// back to the coordinator; it may be nil. A worker calls it once per
// assignment, so concurrent assignments never share a trace; what is
// worth keeping across them (internal/queries: the query's one compiled
// schema and exec-site pool) is the builder's to keep.
type MapBuilder func(trace *obs.Trace) mapreduce.MapFunc

var (
	regMu   sync.RWMutex
	regJobs = map[string]MapBuilder{}
)

// RegisterJob registers the map-side builder for a query key.
// Re-registering a key overwrites it; internal/queries registers each
// query once per process, when it builds its Specs.
func RegisterJob(query string, b MapBuilder) {
	regMu.Lock()
	regJobs[query] = b
	regMu.Unlock()
}

// lookupJob resolves a registered builder.
func lookupJob(query string) (MapBuilder, error) {
	regMu.RLock()
	b, ok := regJobs[query]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no job registered for query %q (did the worker link the registrations?)", query)
	}
	return b, nil
}
