package core

import (
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// sympleMapFunc is the shared SYMPLE mapper: groupby plus symbolic UDA
// execution per group (symExecChunk, one chunk per map task —
// Config.Parallelism across tasks is the map-side parallelism), then one
// emitted summary bundle per group and the task's counts.
//
// pool is the exec-site pool every chunk draws from: reused executors
// keep their run caches and containers warm. A task adds its counts to
// stats under mu; with stats nil it keeps none.
func sympleMapFunc[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], pool *sitePool[*batchExec[S, E]], mu *sync.Mutex, stats *SymStats, trace *obs.Trace, reg *obs.Registry) mapreduce.MapFunc {
	memoKey := groupKey(q)
	return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
		be := pool.get()
		if be == nil {
			be = &batchExec[S, E]{fast: sym.NewSchemaExecutor(sc, q.Update, q.Options), idx: map[string]int32{}}
		}
		g, err := symExecChunk(q, memoKey, be, seg, trace, mapperID, mu, stats)
		if err != nil {
			return err
		}

		// Observe into a task-local registry and merge once at task end:
		// the job registry's histogram mutex would otherwise be hammered
		// once per bundle by every mapper in parallel.
		var lreg *obs.Registry
		var sumBytes *obs.Histogram
		if reg != nil {
			lreg = obs.NewRegistry()
			sumBytes = lreg.Histogram(MetricSummaryBytes)
		}
		for i, key := range g.keys {
			sumBytes.Observe(int64(len(be.bundles[i])))
			emit(key, be.bundles[i])
		}
		// Emit copied the bundles: the site is free for its next chunk.
		pool.put(be)
		lreg.MergeInto(reg)
		return nil
	}
}
