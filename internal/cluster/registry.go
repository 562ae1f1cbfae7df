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

// GroupCombiner folds one merged key group on the reduce owner before
// the group crosses back to the coordinator — for SYMPLE jobs, folding
// the group's summary bundles onto the initial state and returning the
// result as one constant summary (core.SympleCombiner), which is what
// shrinks the reduce reply to KBs. The
// rows slice and its values are only valid for the call; the returned
// rows must not alias them unless they are the input rows unchanged
// (the allowed "cannot combine, pass through" fallback).
type GroupCombiner func(key string, rows []mapreduce.Shuffled) ([]mapreduce.Shuffled, error)

// CombinerBuilder constructs a job's reduce-side group combiner.
type CombinerBuilder func(spec JobSpec, trace *obs.Trace) (GroupCombiner, error)

var (
	regMu        sync.RWMutex
	regJobs      = map[string]MapBuilder{}
	regCombiners = map[string]CombinerBuilder{}
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

// RegisterJobCombiner registers the reduce-side group combiner for a
// query key. Optional: a job without one reduces worker-resident but
// ships every merged group row back uncombined.
func RegisterJobCombiner(query string, b CombinerBuilder) {
	regMu.Lock()
	regCombiners[query] = b
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

// lookupCombiner resolves a registered combiner builder; nil when the
// query has none.
func lookupCombiner(query string) CombinerBuilder {
	regMu.RLock()
	defer regMu.RUnlock()
	return regCombiners[query]
}
