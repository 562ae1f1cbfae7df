package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// The engine. Map and reduce overlap: reduce tasks start before any map
// task and decode runs from per-partition channels as map attempts
// commit. Once every run of a partition has arrived, the reduce attempt
// groups them (rungroup.go): runs read in (mapperID, task) order, each
// in emit order, are §5.4's composition order, so neither side sorts
// and arrival order cannot reach the stream.
//
// Fault tolerance layers on top (task.go): each task runs as retryable
// attempts, and only a committed attempt's runs ever reach a reduce
// channel, so retries and speculative re-execution cannot perturb the
// grouped stream.

func (j *Job) runStreaming(ctx context.Context, conf Config, segments []*Segment) (_ *Metrics, err error) {
	start := time.Now()
	env := newRunEnv(ctx, j, conf)
	// The job root span: every task span parents to it, and its closing
	// attrs carry the whole-job quantities the trace verifier checks
	// (wire vs logical bytes, the cpu-bound parallelism cap).
	jobSpan := env.conf.Trace.StartJob(j.Name)
	defer func() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		jobSpan.Tag(obs.TagOutcome, outcome).
			Attr(obs.AttrParallelism, int64(conf.Parallelism)).
			Attr(obs.AttrWireBytes, env.reg.Counter(MetricShuffleBytes).Value()).
			Attr(obs.AttrLogicalBytes, env.reg.Counter(MetricShuffleLogical).Value()).
			Attr(obs.AttrGroups, env.reg.Counter(MetricGroups).Value()).
			End()
		env.reg.MergeInto(conf.Registry)
	}()
	mapOnly := j.Reduce == nil
	if verr := validateRemote(conf, mapOnly); verr != nil {
		return nil, fmt.Errorf("mapreduce %q: %w", j.Name, verr)
	}

	// ---- Reduce tasks (launched first: there is no map barrier) ----
	// A map-only job has no reduce side: no transport opens, no reducer
	// waits, and a task's commit is where its output leaves the engine.
	var reduces []TaskMetrics
	var reduceErrs []error
	var rwg sync.WaitGroup
	if !mapOnly {
		env.transport = newMemTransport(conf.NumReducers, len(segments))
		reduces = make([]TaskMetrics, conf.NumReducers)
		reduceErrs = make([]error, conf.NumReducers)
	}
	for p := range reduces {
		rwg.Add(1)
		go func(p int) {
			defer rwg.Done()
			reduces[p], reduceErrs[p] = env.runReduceTask(p)
		}(p)
	}

	// ---- Map tasks: one driver per task, attempts inside ----
	mapStart := time.Now()
	states := make([]*mapTask, len(segments))
	var wg sync.WaitGroup
	for i, seg := range segments {
		states[i] = &mapTask{id: i, seg: seg}
		wg.Add(1)
		go func(st *mapTask) {
			defer wg.Done()
			env.driveMapTask(st)
		}(states[i])
	}
	stop := make(chan struct{})
	var watchdog sync.WaitGroup
	if conf.Speculation && len(segments) > 1 {
		watchdog.Add(1)
		go func() {
			defer watchdog.Done()
			env.speculationWatchdog(states, stop)
		}()
	}
	wg.Wait()
	close(stop)
	watchdog.Wait()
	// Late speculative attempts may still be running (their task already
	// resolved); wait so every commit or discard lands before the
	// channels close.
	env.specWG.Wait()
	mapDone := time.Now()

	// Settle the map side, then release the reducers by closing their
	// channels: one pass records each committed task's counts in the job
	// registry. Permanent task failures join into one multi-error.
	var maps []TaskMetrics
	var mapErrs []error
	for _, st := range states {
		mapErrs = append(mapErrs, st.err)
		if st.err == nil && st.committed.Load() {
			maps = append(maps, st.task)
			env.record(MetricInputBytes, st.task.InputBytes)
			env.record(MetricInputRecords, st.task.Records)
			env.record(MetricShuffleRecords, st.emitted)
			env.record(MetricShuffleLogical, st.logical)
			for _, b := range st.task.OutBytes {
				env.record(MetricShuffleBytes, b)
			}
		}
	}
	mapErr := errors.Join(mapErrs...)
	if cerr := ctx.Err(); cerr != nil {
		mapErr = fmt.Errorf("mapreduce %q: %w", j.Name, cerr)
	}
	if mapErr != nil {
		env.aborted.Store(true)
	}
	if !mapOnly {
		env.transport.closeSend()
		rwg.Wait()
	}
	if mapErr != nil {
		return nil, mapErr
	}

	// Settle the reduce side the same way.
	for p := range reduces {
		if reduceErrs[p] == nil {
			env.record(MetricGroups, reduces[p].Records)
		}
	}
	if err := errors.Join(reduceErrs...); err != nil {
		return nil, err
	}
	m := env.metrics(maps, reduces)
	m.MapWall = mapDone.Sub(mapStart)
	// ReduceWall is the post-map tail: the part of reduce work left on
	// the critical path after pipelining has overlapped the rest.
	m.ReduceWall = time.Since(mapDone)
	m.TotalWall = time.Since(start)
	return m, nil
}

// record adds n to the job registry's count name.
func (env *runEnv) record(name string, n int64) { env.reg.Counter(name).Add(n) }

// metrics builds the job's Metrics: every count from the job registry,
// where the settle and the tasks recorded it, beside the tasks' own
// records and their summed durations.
func (env *runEnv) metrics(maps, reduces []TaskMetrics) *Metrics {
	c := func(name string) int64 { return env.reg.Counter(name).Value() }
	m := &Metrics{
		InputBytes:          c(MetricInputBytes),
		InputRecords:        c(MetricInputRecords),
		ShuffleBytes:        c(MetricShuffleBytes),
		ShuffleLogicalBytes: c(MetricShuffleLogical),
		ShuffleRecords:      c(MetricShuffleRecords),
		MapTasks:            maps,
		ReduceTasks:         reduces,
		Groups:              c(MetricGroups),
		MapAttempts:         c(MetricMapAttempts),
	}
	for _, t := range maps {
		m.MapCPU += t.Duration
	}
	for _, t := range reduces {
		m.ReduceCPU += t.Duration
	}
	return m
}

// collectRuns drains one partition's channel into its table until all
// map tasks are resolved, decoding each run on arrival. Returns the
// total wire bytes received, active (decoding) time, and the first
// run-load error.
func (env *runEnv) collectRuns(p int, t *partTable) (inBytes int64, active time.Duration, err error) {
	for r := range env.transport[p] {
		t0 := time.Now()
		derr := t.decodeRun(env.conf.Trace, p, r)
		active += time.Since(t0)
		if derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		t.segs = append(t.segs, r.Seg) // the engine's own: recycled with the table
		inBytes += int64(len(r.Seg))
	}
	return inBytes, active, err
}

// reduceGroups groups the partition's runs and streams each key group to
// the reduce function.
func (env *runEnv) reduceGroups(p int, t *partTable, faults AttemptFaults) (groups int64, err error) {
	j := env.job
	groupHist := env.reg.Histogram(MetricGroupValues)
	ord := 0
	return groupAttempt(env.ctx, env.conf.Trace, p, t, faults, func(key string, group []Shuffled) error {
		groupHist.Observe(int64(len(group)))
		if err := j.Reduce(p, ord, key, group); err != nil {
			return fmt.Errorf("mapreduce %q: reduce task %d key %q: %w", j.Name, p, key, err)
		}
		ord++
		return nil
	})
}

// groupAttempt is a reduce attempt's body: the reduce-merge fault, then
// the table's grouping pass with the reduce-mid fault, if armed, firing
// after its group — the ordinal is fixed once per attempt, so an unarmed
// attempt streams straight to fn.
func groupAttempt(ctx context.Context, trace *obs.Trace, part int, t *partTable, faults AttemptFaults,
	fn func(key string, group []Shuffled) error) (int64, error) {
	if err := faults.Fire(ctx, PointReduceMerge, 0); err != nil {
		return 0, err
	}
	for _, f := range faults {
		if f.Point != PointReduceMid {
			continue
		}
		reduce, n := fn, int64(0)
		fn = func(key string, group []Shuffled) error {
			err := reduce(key, group)
			if n++; err == nil && n == f.At+1 {
				err = f.fire(ctx)
			}
			return err
		}
	}
	return t.group(trace, part, fn)
}

// MergeEncodedRuns is a reduce attempt's grouping over wire-form runs
// held outside a job: it decodes them and streams each key group to fn
// in exactly the order a reduce task produces — groups in order of first
// appearance over the runs read by (mapperID, task), each run in emit
// order; values in (mapperID, emit) order. Each run is decoded as
// a reduce task decodes it, into a pooled reduce-task table.
//
// The group slice and its values alias the table and rs, and the table
// is released when MergeEncodedRuns returns: fn must copy or encode
// what it keeps. faults are fired at the reduce points as a reduce
// attempt fires them.
func MergeEncodedRuns(part int, rs []Run, trace *obs.Trace,
	fn func(key string, group []Shuffled) error, faults ...Fault) error {
	t := partTables.Get().(*partTable)
	defer t.release()
	for _, r := range rs {
		if err := t.decodeRun(trace, part, r); err != nil {
			return fmt.Errorf("mapreduce: %w", err)
		}
	}
	_, err := groupAttempt(context.Background(), trace, part, t, faults, fn)
	return err
}
