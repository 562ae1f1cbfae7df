package core

import (
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// SympleMapper builds the standalone map side of a SYMPLE query — the
// exact mapper RunSymple wires into its in-process job — for use
// by a cluster worker. The worker executes assignments through this
// function and mapreduce.ExecuteMap, so the bytes it ships are the
// bytes the in-process engine would have produced for the same
// (task, segment) pair: groupby, symbolic execution and run folding all
// behave identically, which is what the transport
// differential tests pin down.
//
// trace receives the worker-side spans (map parse/exec, spill encode)
// that ship back to the coordinator; it may be nil. The returned
// mapper owns private stats/mutex state, so one built mapper is safe
// for any number of sequential or concurrent attempts.
func SympleMapper[S sym.State, E, R any](q *Query[S, E, R], trace *obs.Trace) (mapreduce.MapFunc, error) {
	mk, err := SympleMappers(q)
	if err != nil {
		return nil, err
	}
	return mk(trace), nil
}

// SympleMappers returns a maker of SympleMapper mappers that share one
// compiled schema and one executor pool. A caller that outlives its
// jobs (the query service) makes it once per query and a mapper per
// job, bound to that job's trace: the next job finds the executors and
// path containers the last one left instead of building — and dropping
// — its own.
func SympleMappers[S sym.State, E, R any](q *Query[S, E, R]) (func(trace *obs.Trace) mapreduce.MapFunc, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	sc, err := q.Schema()
	if err != nil {
		return nil, err
	}
	pool := &batchExecPool[S, E]{}
	return func(trace *obs.Trace) mapreduce.MapFunc {
		return sympleMapFunc(q, sc, pool, &sync.Mutex{}, &SymStats{}, trace, nil)
	}, nil
}

// sympleMapFunc is the shared SYMPLE mapper: groupby plus symbolic UDA
// execution per group (symExecChunk, one chunk per map task —
// Config.Parallelism across tasks is the map-side parallelism), then one
// emitted summary bundle per group and the task's counts.
//
// pool is the exec-site pool every chunk draws from: reused executors
// keep their run caches and containers warm.
func sympleMapFunc[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], pool *batchExecPool[S, E], mu *sync.Mutex, stats *SymStats, trace *obs.Trace, reg *obs.Registry) mapreduce.MapFunc {
	return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
		out, err := symExecChunk(q, sc, pool, seg, trace, mapperID)
		if err != nil {
			return err
		}
		local := &out.stats

		// Observe into a task-local registry and merge once at task end:
		// the job registry's histogram mutex would otherwise be hammered
		// once per bundle by every mapper in parallel.
		var lreg *obs.Registry
		var sumBytes *obs.Histogram
		if reg != nil {
			lreg = obs.NewRegistry()
			sumBytes = lreg.Histogram(MetricSummaryBytes)
		}
		for i, key := range out.order {
			sumBytes.Observe(int64(len(out.bundles[i])))
			emit(key, out.lastRec[i], out.bundles[i])
		}
		if reg != nil {
			if local.RunProbes > 0 {
				lreg.Counter(MetricRunProbes).Add(int64(local.RunProbes))
			}
			lreg.MergeInto(reg)
		}
		mu.Lock()
		stats.Records += local.Records
		stats.Runs += local.Runs
		stats.Merges += local.Merges
		stats.Restarts += local.Restarts
		stats.Summaries += local.Summaries
		stats.Events += local.Events
		stats.RunProbes += local.RunProbes
		stats.ExecWall += local.ExecWall
		mu.Unlock()
		return nil
	}
}
