package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The engine. Map and reduce overlap: reduce tasks start before any map
// task and decode runs from per-partition channels as map attempts
// commit. Once every run of a partition has arrived, the reduce attempt
// groups them (rungroup.go): runs read in (mapperID, task) order, each
// in emit order, are §5.4's (mapperID, recordID) composition order, so
// neither side sorts by key and arrival order cannot reach the stream.
//
// Fault tolerance layers on top (task.go): each task runs as retryable
// attempts, and only a committed attempt's runs ever reach a reduce
// channel, so retries and speculative re-execution cannot perturb the
// grouped stream.

func (j *Job) runStreaming(ctx context.Context, conf Config, segments []*Segment) (_ *Metrics, err error) {
	m := &Metrics{}
	start := time.Now()
	reg := obs.NewRegistry()
	env := &runEnv{
		ctx:     ctx,
		job:     j,
		conf:    conf,
		sem:     make(chan struct{}, conf.Parallelism),
		aborted: &atomic.Bool{},
		trace:   conf.Trace,
		reg:     reg,

		mapAttempts:    reg.Counter(MetricMapAttempts),
		reduceAttempts: reg.Counter(MetricReduceAttempts),
		retries:        reg.Counter(MetricTaskRetries),
		specLaunched:   reg.Counter(MetricSpecTasks),
		specWins:       reg.Counter(MetricSpecWins),
	}
	// The job root span: every task span parents to it, and its closing
	// attrs carry the whole-job quantities the trace verifier checks
	// (wire vs logical bytes, the cpu-bound parallelism cap).
	jobSpan := env.trace.StartJob(j.Name)
	defer func() {
		if err != nil {
			jobSpan.Tag(obs.TagOutcome, "error")
		} else {
			jobSpan.Tag(obs.TagOutcome, "ok")
		}
		jobSpan.Attr(obs.AttrParallelism, int64(conf.Parallelism)).
			Attr(obs.AttrWireBytes, m.ShuffleBytes).
			Attr(obs.AttrLogicalBytes, m.ShuffleLogicalBytes).
			Attr(obs.AttrGroups, m.Groups).
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
	type redOut struct {
		task TaskMetrics // Records: the partition's groups
		err  error
	}
	var redOuts []redOut
	var rwg sync.WaitGroup
	if !mapOnly {
		env.transport = newMemTransport(conf.NumReducers, len(segments))
		redOuts = make([]redOut, conf.NumReducers)
	}
	for p := range redOuts {
		rwg.Add(1)
		go func(p int) {
			defer rwg.Done()
			runs, inBytes, active, lerr := env.collectRuns(p)
			if env.aborted.Load() || lerr != nil {
				releaseRuns(runs)
				if lerr != nil {
					redOuts[p] = redOut{err: fmt.Errorf("mapreduce %q: reduce task %d: %w", j.Name, p, lerr)}
				}
				return
			}
			// The grouping and the user reduce calls are CPU work; cap them
			// like any other task. By now all maps are done, so their
			// semaphore slots are free.
			env.sem <- struct{}{}
			defer func() { <-env.sem }()
			t0 := time.Now()
			groups, err := env.runReduceTask(p, runs)
			redOuts[p] = redOut{err: err,
				task: TaskMetrics{Duration: active + time.Since(t0), InputBytes: inBytes, Records: groups}}
		}(p)
	}

	// ---- Map tasks: one driver per task, attempts inside ----
	mapStart := time.Now()
	states := make([]*mapTask, len(segments))
	var wg sync.WaitGroup
	for i, seg := range segments {
		states[i] = newMapTask(i, seg)
		wg.Add(1)
		go func(st *mapTask) {
			defer wg.Done()
			env.driveMapTask(st)
		}(states[i])
	}
	var watchdogDone chan struct{}
	var watchdogStop chan struct{}
	if conf.Speculation && len(segments) > 1 {
		watchdogStop = make(chan struct{})
		watchdogDone = make(chan struct{})
		go env.speculationWatchdog(states, watchdogStop, watchdogDone)
	}
	wg.Wait()
	if watchdogStop != nil {
		close(watchdogStop)
		<-watchdogDone
	}
	// Late speculative attempts may still be running (their task already
	// resolved); wait so every commit or discard lands before the
	// channels close.
	env.specWG.Wait()
	mapDone := time.Now()
	m.MapWall = mapDone.Sub(mapStart)

	// Collect map outcomes into the job registry, then release the
	// reducers by closing their channels. Permanent task failures
	// aggregate into one multi-error. The scalar Metrics fields are read
	// back from the registry below — the registry is the system of
	// record, Metrics the derived view.
	var taskFailures []error
	for i, st := range states {
		if st.failErr != nil {
			taskFailures = append(taskFailures, st.failErr)
			continue
		}
		if !st.committed.Load() {
			continue // stopped early: job aborting or cancelled
		}
		m.MapTasks = append(m.MapTasks, st.task)
		m.MapCPU += st.task.Duration
		env.reg.Counter(MetricInputBytes).Add(st.task.InputBytes)
		env.reg.Counter(MetricInputRecords).Add(int64(len(segments[i].Records)))
		env.reg.Counter(MetricShuffleRecords).Add(st.emitted)
		for _, b := range st.task.OutBytes {
			env.reg.Counter(MetricShuffleBytes).Add(b)
		}
		for _, b := range st.task.LogicalOutBytes {
			env.reg.Counter(MetricShuffleLogical).Add(b)
		}
	}
	m.InputBytes = env.reg.Counter(MetricInputBytes).Value()
	m.InputRecords = env.reg.Counter(MetricInputRecords).Value()
	m.ShuffleRecords = env.reg.Counter(MetricShuffleRecords).Value()
	m.ShuffleBytes = env.reg.Counter(MetricShuffleBytes).Value()
	m.ShuffleLogicalBytes = env.reg.Counter(MetricShuffleLogical).Value()
	m.MapAttempts = env.mapAttempts.Value()
	m.SpeculativeTasks = env.specLaunched.Value()
	m.SpeculativeWins = env.specWins.Value()

	var mapErr error
	if err := ctx.Err(); err != nil {
		mapErr = fmt.Errorf("mapreduce %q: %w", j.Name, err)
	} else if len(taskFailures) > 0 {
		mapErr = errors.Join(taskFailures...)
	}
	if mapErr != nil {
		env.aborted.Store(true)
	}
	if !mapOnly {
		env.transport.closeSend()
		rwg.Wait()
	}
	m.ReduceAttempts = env.reduceAttempts.Value()
	m.TaskRetries = env.retries.Value() // map and reduce retries
	if mapErr != nil {
		return nil, mapErr
	}

	var reduceFailures []error
	for p := range redOuts {
		if redOuts[p].err != nil {
			reduceFailures = append(reduceFailures, redOuts[p].err)
			continue
		}
		m.ReduceTasks = append(m.ReduceTasks, redOuts[p].task)
		m.ReduceCPU += redOuts[p].task.Duration
		env.reg.Counter(MetricGroups).Add(redOuts[p].task.Records)
	}
	m.Groups = env.reg.Counter(MetricGroups).Value()
	if len(reduceFailures) > 0 {
		return nil, errors.Join(reduceFailures...)
	}
	// ReduceWall is the post-map tail: the part of reduce work left on
	// the critical path after pipelining has overlapped the rest.
	m.ReduceWall = time.Since(mapDone)
	m.TotalWall = time.Since(start)
	return m, nil
}

// collectRuns drains one partition's channel until all map tasks are
// resolved, decoding each run into a pooled buffer on arrival. Returns
// the runs, total wire bytes received, active (decoding) time, and the
// first run-load error.
func (env *runEnv) collectRuns(p int) (runs []spillRun, inBytes int64, active time.Duration, err error) {
	for r := range env.transport[p] {
		t0 := time.Now()
		run, derr := decodeRun(env.trace, p, r)
		active += time.Since(t0)
		if derr != nil {
			if err == nil {
				err = derr
			}
			continue
		}
		run.seg = r.Seg // the engine's own: recycled when the reduce task ends
		runs = append(runs, run)
		inBytes += int64(len(r.Seg))
	}
	return runs, inBytes, active, err
}

// decodeRun decodes one committed run for partition part's reducer under
// a seg_decode span carrying the run's producer identity — the
// consumption record the trace verifier joins against run_commit events
// for the merged-exactly-once invariant.
func decodeRun(trace *obs.Trace, part int, r Run) (spillRun, error) {
	span := trace.Start(obs.KindSegDecode, fmt.Sprintf("part-%d", part)).
		Attr(obs.AttrTask, int64(r.Task)).Attr(obs.AttrAttempt, int64(r.Attempt)).
		Attr(obs.AttrPart, int64(r.Part)).Attr(obs.AttrBytes, int64(len(r.Seg)))
	recs, mapperID, err := decodeSegment(r.Seg)
	if err != nil {
		span.Tag(obs.TagOutcome, "error").End()
		return spillRun{}, fmt.Errorf("run (task %d attempt %d part %d): %w", r.Task, r.Attempt, r.Part, err)
	}
	span.End()
	return spillRun{recs: recs, mapperID: mapperID, task: r.Task}, nil
}

// reduceGroups groups the partition's runs and streams each key group to
// the reduce function.
func (env *runEnv) reduceGroups(p int, runs []spillRun, faults AttemptFaults) (groups int64, err error) {
	j := env.job
	groupHist := env.reg.Histogram(MetricGroupValues)
	ord := 0
	return groupAttempt(env.ctx, env.trace, p, runs, faults, func(key string, group []Shuffled) error {
		groupHist.Observe(int64(len(group)))
		if err := j.Reduce(p, ord, key, group); err != nil {
			return fmt.Errorf("mapreduce %q: reduce task %d key %q: %w", j.Name, p, key, err)
		}
		ord++
		return nil
	})
}

// groupAttempt is a reduce attempt's body: the reduce-merge fault, then
// groupRuns with the reduce-mid fault, if armed, firing after its
// group — the ordinal is fixed once per attempt, so an unarmed attempt
// streams straight to fn.
func groupAttempt(ctx context.Context, trace *obs.Trace, part int, runs []spillRun, faults AttemptFaults,
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
	return groupRuns(trace, part, runs, fn)
}

// MergeEncodedRuns is a reduce attempt's grouping over wire-form runs
// held outside a job: it decodes them and streams each key group to fn
// in exactly the order a reduce task produces — groups in order of first
// appearance over the runs read by (mapperID, task), each run in emit
// order; values ordered by (mapperID, recordID). Each run is decoded as
// a reduce task decodes it (decodeRun).
//
// The group slice and its values alias pooled buffers released when
// MergeEncodedRuns returns: fn must copy or encode what it keeps. faults
// are fired at the reduce points as a reduce attempt fires them.
func MergeEncodedRuns(part int, rs []Run, trace *obs.Trace,
	fn func(key string, group []Shuffled) error, faults ...Fault) error {
	runs := make([]spillRun, 0, len(rs))
	defer func() { releaseRuns(runs) }()
	for _, r := range rs {
		run, err := decodeRun(trace, part, r)
		if err != nil {
			return fmt.Errorf("mapreduce: %w", err)
		}
		runs = append(runs, run)
	}
	_, err := groupAttempt(context.Background(), trace, part, runs, faults, fn)
	return err
}
