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

// MapBuilder constructs the map side of a job for the given spec.
// trace receives the worker-side spans (map parse/exec chunks) that
// ship back to the coordinator; it may be nil.
type MapBuilder func(spec JobSpec, trace *obs.Trace) (mapreduce.MapFunc, error)

var (
	regMu   sync.RWMutex
	regJobs = map[string]MapBuilder{}
)

// RegisterJob registers the map-side builder for a query key.
// Re-registering a key overwrites it (registration happens wherever
// the typed query is constructed, which may run more than once); all
// registrations for a key must be behaviorally identical.
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
