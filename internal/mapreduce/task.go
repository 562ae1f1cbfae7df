package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Task lifecycle: every map and reduce task runs as a sequence of
// numbered attempts. A failed attempt is retried with capped exponential
// backoff up to Config.MaxAttempts; straggling map tasks additionally
// get one speculative backup attempt (Config.Speculation) racing the
// original, first finisher wins. An attempt's output becomes visible to
// reducers only when the attempt commits — a single CompareAndSwap per
// task — so a losing or dying attempt's runs are never published, let
// alone grouped. This is safe for the same reason the paper's summaries
// parallelize at all: a map attempt is a deterministic recomputation
// over its segment, and reducers compose whatever committed in
// (mapperID, recordID) order (§5.4).

// speculationTick is the straggler watchdog's poll interval. It bounds
// how quickly a backup attempt can launch; at in-process task durations
// a sub-millisecond tick keeps speculation responsive without cost.
const speculationTick = 500 * time.Microsecond

// speculationMultiple is the straggler threshold: a task running longer
// than this many median committed durations gets a backup attempt.
const speculationMultiple = 3

// maxBackoffFactor caps the retry backoff curve at this multiple of
// Config.RetryBackoff.
const maxBackoffFactor = 50

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay returns the capped exponential delay before the given
// retry (attempt ≥ 1 of the driver's budget).
func backoffDelay(conf Config, retry int) time.Duration {
	d, limit := conf.RetryBackoff, conf.RetryBackoff*maxBackoffFactor
	for i := 1; i < retry && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// runEnv bundles the per-job scheduler state shared by task drivers,
// attempts, and the speculation watchdog.
type runEnv struct {
	ctx       context.Context
	job       *Job
	conf      Config
	sem       chan struct{}
	transport memTransport
	aborted   atomic.Bool

	// reg is the job's private metrics registry: every count is recorded
	// there once, and Metrics is built from it (metrics).
	reg *obs.Registry

	specWG        sync.WaitGroup // in-flight speculative attempts
	maps, reduces taskKind
}

// newRunEnv is job j's scheduler state under conf, its registry fresh.
func newRunEnv(ctx context.Context, j *Job, conf Config) *runEnv {
	reg := obs.NewRegistry()
	return &runEnv{
		ctx:  ctx,
		job:  j,
		conf: conf,
		sem:  make(chan struct{}, conf.Parallelism),
		reg:  reg,
		maps: taskKind{"map", obs.KindMapAttempt, obs.AttrRecords,
			mapFaultPoints(conf), reg.Counter(MetricMapAttempts)},
		reduces: taskKind{"reduce", obs.KindReduceAttempt, obs.AttrGroups,
			[]FaultPoint{PointReduceMerge, PointReduceMid}, reg.Counter(MetricReduceAttempts)},
	}
}

// taskKind is what the attempt loop knows of a map or a reduce task.
type taskKind struct {
	phase    string       // "map" or "reduce": span names, the commit span's phase, errors
	span     string       // the attempt span's kind
	count    obs.AttrKey  // an ok attempt span's count: records mapped, groups reduced
	points   []FaultPoint // the fault points an attempt can reach
	attempts *obs.Counter
}

// runTask is the one attempt loop, map and reduce tasks alike: attempt
// runs the loop's try a and returns the attempt's ID, up to
// Config.MaxAttempts times with capped exponential backoff before each
// retry, until one succeeds (nil), the job is cancelled (ctx's error) or
// the budget is spent (an error naming the task and joining every
// attempt's). Before an attempt the loop also ends, with nil, once
// committed is set — a map task's backup won; nil for a reduce task — or
// the job is aborting.
func (env *runEnv) runTask(k *taskKind, task int, committed *atomic.Bool, attempt func(a int) (int, error)) error {
	var errs []error
	for a := 0; a < env.conf.MaxAttempts; a++ {
		if (committed != nil && committed.Load()) || env.aborted.Load() {
			return nil
		}
		if err := env.ctx.Err(); err != nil {
			return err
		}
		if a > 0 {
			env.record(MetricTaskRetries, 1)
			if err := sleepCtx(env.ctx, backoffDelay(env.conf, a)); err != nil {
				return err
			}
		}
		id, err := attempt(a)
		if err == nil {
			return nil
		}
		if cerr := env.ctx.Err(); cerr != nil {
			return cerr
		}
		errs = append(errs, fmt.Errorf("attempt %d: %w", id, err))
	}
	return fmt.Errorf("mapreduce %q: %s task %d failed after %d attempts: %w",
		env.job.Name, k.phase, task, len(errs), errors.Join(errs...))
}

// runAttempt is one attempt of a task of kind k: it takes a task slot,
// arms the attempt's faults and runs body under the attempt span, which
// closes with the attempt's outcome and, ok, body's count. The span
// opens after the slot, so summed attempt spans stay bounded by wall ×
// Parallelism (the verifier's cpu-bound invariant).
func (env *runEnv) runAttempt(k *taskKind, task, attempt int, spec bool, body func(AttemptFaults) (int64, error)) error {
	k.attempts.Add(1)
	select {
	case env.sem <- struct{}{}:
	case <-env.ctx.Done():
		return env.ctx.Err()
	}
	defer func() { <-env.sem }()
	span := env.conf.Trace.Start(k.span, fmt.Sprintf("%s-%d", k.phase, task)).
		Attr(obs.AttrTask, int64(task)).Attr(obs.AttrAttempt, int64(attempt))
	if spec {
		span.Tag(obs.TagSpeculative, "1")
	}
	n, err := body(env.conf.Faults.Arm(task, attempt, env.conf.MaxAttempts, k.points...))
	if err != nil {
		span.Tag(obs.TagOutcome, "error").End()
		return err
	}
	span.Tag(obs.TagOutcome, "ok").Attr(k.count, n).End()
	return nil
}

// commitSpan marks attempt as the one task committed.
func (env *runEnv) commitSpan(k *taskKind, task, attempt int) {
	env.conf.Trace.Start(obs.KindCommit, fmt.Sprintf("%s-%d", k.phase, task)).
		Attr(obs.AttrTask, int64(task)).Attr(obs.AttrAttempt, int64(attempt)).
		Tag(obs.TagPhase, k.phase).End()
}

// mapTask is one map task's lifecycle state, shared by its driver, any
// speculative attempt, and the watchdog.
type mapTask struct {
	id  int
	seg *Segment

	committed  atomic.Bool
	attemptSeq atomic.Int32 // next attempt ID
	firstStart atomic.Int64 // unix nanos the first attempt took its task slot
	commitDur  atomic.Int64 // committed attempt's duration (nanos)

	// Written once by the committing attempt (guarded by the commit CAS),
	// read after all drivers and backups have finished.
	task             TaskMetrics
	emitted, logical int64

	mu       sync.Mutex
	finished bool          // driver out of attempts (under mu)
	backup   chan struct{} // closed when the speculative attempt ends; nil if none

	// err is the task's failure: its budget spent, or its output refused
	// after the commit. nil when it committed or stopped early (the job
	// aborting or cancelled).
	err error
}

// driveMapTask runs a map task through the attempt loop. Its attempt IDs
// come from the sequence it shares with a speculative backup, and an
// attempt that loses the commit race to the backup ends the task as a
// win would. A task whose budget is spent while a backup is in flight
// waits for the backup before it fails.
func (env *runEnv) driveMapTask(st *mapTask) {
	err := env.runTask(&env.maps, st.id, &st.committed, func(int) (int, error) {
		id := int(st.attemptSeq.Add(1) - 1)
		out, err := env.runMapAttempt(st, id, false)
		if err == nil {
			if won, cerr := env.commit(st, id, out); won && cerr != nil {
				st.err = cerr // output failure after commit: abort, no retry
			}
		}
		return id, err
	})
	st.mu.Lock()
	st.finished = true
	b := st.backup
	st.mu.Unlock()
	if err == nil || env.ctx.Err() != nil {
		return
	}
	if b != nil {
		<-b
	}
	if !st.committed.Load() {
		st.err = err
	}
}

// mapFaultPoints are the points a map attempt under conf can reach: a
// remote attempt's runs are also received by the coordinator.
func mapFaultPoints(conf Config) []FaultPoint {
	pts := []FaultPoint{PointMapStart, PointMapEmit, PointMapMid, PointRunSend}
	if conf.RemoteMap != nil {
		pts = append(pts, PointRunRecv)
	}
	return append(pts, PointSpillWrite)
}

// runMapAttempt executes one map attempt: its body runs here
// (executeMap) or on a worker. The returned result is uncommitted.
func (env *runEnv) runMapAttempt(st *mapTask, attempt int, spec bool) (out *MapOutput, err error) {
	// Cluster mode delegates the body to the remote mapper. The task slot
	// stays held — it bounds in-flight remote attempts the way it bounds
	// local CPU — and the attempt span still wraps it, so the verifier's
	// commit-matches-attempt and cpu-bound invariants see the same shape
	// wherever the body ran; adopt checks either's output the same way,
	// so commit and the reduce side cannot tell.
	err = env.runAttempt(&env.maps, st.id, attempt, spec, func(faults AttemptFaults) (int64, error) {
		// A task straggles from when it first holds a slot: time queued
		// for one is not the task's.
		st.firstStart.CompareAndSwap(0, time.Now().UnixNano())
		var err error
		switch {
		case env.conf.RemoteMap != nil:
			out, err = env.conf.RemoteMap.RunMap(env.ctx, st.id, attempt, st.seg, faults)
		case env.job.Reduce == nil:
			out, err = executeMap(env.ctx, env.job.Map, st.seg, st.id, attempt, env.conf, nil, faults)
		default:
			var runs runList
			if out, err = executeMap(env.ctx, env.job.Map, st.seg, st.id, attempt, env.conf, &runs, faults); err == nil {
				out.Runs = runs
			}
		}
		if err == nil {
			err = env.adopt(st, attempt, out)
		}
		return int64(len(st.seg.Records)), err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runList is the in-process attempt's RunSink: its runs wait for the
// commit.
type runList []Run

func (l *runList) Publish(r Run) error {
	*l = append(*l, r)
	return nil
}

// executeMap is the one map attempt body — emit, partition, segcodec
// encode, publish into sink — run by the engine's in-process
// attempts and by cluster workers through ExecuteMap, which is what
// makes a run byte-identical wherever it was produced; it fires the
// attempt's armed faults at their points either way. A nil sink is the
// map-only job's: nothing is partitioned or encoded, and the
// emitted records themselves come back as the output.
func executeMap(ctx context.Context, mapFn MapFunc, seg *Segment, task, attempt int,
	conf Config, sink RunSink, faults AttemptFaults) (out *MapOutput, err error) {
	t0 := time.Now()
	n := conf.NumReducers
	if sink == nil {
		n = 1
	}
	s := mapScratches.Get().(*mapScratch)
	parts := s.partitions(n)
	// A kill or error fault inside the user map surfaces as a panic;
	// recover it into the attempt's error, as if the worker died. A failed
	// attempt returns its scratch at once.
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(attemptAbort)
			if !ok {
				panic(r)
			}
			out, err = nil, ab.err
		}
		if err != nil {
			s.release()
		}
	}()

	if ferr := faults.Fire(ctx, PointMapStart, 0); ferr != nil {
		return nil, ferr
	}
	// The emit-point faults, in emit order (map-emit at 0, map-mid after
	// it), fire inside the user map: a kill or error panics out of it.
	var trigs []Fault
	for _, f := range faults {
		if f.Point == PointMapEmit || f.Point == PointMapMid {
			trigs = append(trigs, f)
		}
	}
	var emitted int64
	emit := func(key string, recordID int64, value []byte) {
		if len(trigs) > 0 && emitted == trigs[0].At {
			f := trigs[0]
			trigs = trigs[1:]
			if ferr := f.fire(ctx); ferr != nil {
				panic(attemptAbort{ferr})
			}
		}
		emitted++
		p := partition(key, n)
		parts[p] = append(parts[p], kvRec{key: key, mapperID: seg.ID, recordID: recordID, value: s.arena.copy(value)})
	}
	if err := mapFn(seg.ID, seg, emit); err != nil {
		return nil, err
	}

	out = &MapOutput{}
	if sink == nil {
		out.scratch = s
	} else {
		if err := spillRuns(ctx, parts, &s.enc, task, attempt, conf, sink, out, faults); err != nil {
			return nil, err
		}
		s.release()
		s = nil
	}
	// Emitted keys may view seg's records until encoded; a map-only
	// attempt's pairs are read at its commit, whose task holds seg.
	runtime.KeepAlive(seg)
	if ferr := faults.Fire(ctx, PointSpillWrite, 0); ferr != nil {
		return nil, ferr
	}
	out.Duration = time.Since(t0)
	return out, nil
}

// spillRuns encodes each non-empty partition, in emit order, into its
// wire segment (segcodec.go) and publishes the run, so run sizes are
// always real encoder output, not a model of it; it sums the records'
// logical size (wireSize) beside. The run-send fault fires before the
// run it counts is published.
func spillRuns(ctx context.Context, parts [][]kvRec, enc *segEncoder, task, attempt int, conf Config,
	sink RunSink, out *MapOutput, faults AttemptFaults) error {
	for p := range parts {
		out.Emitted += int64(len(parts[p]))
	}
	span := conf.Trace.Start(obs.KindSpillEncode, fmt.Sprintf("map-%d", task)).
		Attr(obs.AttrTask, int64(task)).Attr(obs.AttrAttempt, int64(attempt))
	var bytes, sent int64
	for p := range parts {
		if len(parts[p]) == 0 {
			continue
		}
		for i := range parts[p] {
			out.LogicalOutBytes += parts[p][i].wireSize()
		}
		sg := enc.encode(parts[p])
		bytes += int64(len(sg))
		err := faults.Fire(ctx, PointRunSend, sent)
		if err == nil {
			err = sink.Publish(Run{Task: task, Attempt: attempt, Part: p, Seg: sg})
		}
		sent++
		if err != nil {
			span.Tag(obs.TagOutcome, "error").End()
			return err
		}
	}
	span.Attr(obs.AttrBytes, bytes).End()
	return nil
}

// mapScratch is a map attempt's scratch, pooled across attempts: its
// per-partition record buffers, each keeping the capacity its emits grew
// it to, the value arena the emits copy into, and the run encoder. An
// attempt returns it whole once its records are dead — its runs
// encoded, its pairs handed to Output, or the attempt failed.
type mapScratch struct {
	parts [][]kvRec
	arena valueArena
	enc   segEncoder
}

var mapScratches = sync.Pool{New: func() any { return new(mapScratch) }}

// partitions returns the scratch's first n record buffers, empty.
func (s *mapScratch) partitions(n int) [][]kvRec {
	for len(s.parts) < n {
		s.parts = append(s.parts, nil)
	}
	return s.parts[:n]
}

// release returns the scratch to the pool, clearing its records so
// pooled memory pins no user keys or values. nil is a no-op.
func (s *mapScratch) release() {
	if s == nil {
		return
	}
	for i := range s.parts {
		clear(s.parts[i])
		s.parts[i] = s.parts[i][:0]
	}
	s.arena.reset()
	mapScratches.Put(s)
}

// valueArena holds one map attempt's emitted values back to back in
// 64 KB chunks (a larger value gets one of its own), each cap-clipped:
// Emit copies into it, so a mapper reuses its own buffers, and the next
// attempt to hold the scratch refills the chunks.
type valueArena struct {
	chunks [][]byte
	cur    int // the chunk being filled
}

// copy returns a copy of v in the arena.
func (a *valueArena) copy(v []byte) []byte {
	for a.cur < len(a.chunks) && cap(a.chunks[a.cur])-len(a.chunks[a.cur]) < len(v) {
		a.cur++
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, 0, max(len(v), 64<<10)))
	}
	c := a.chunks[a.cur]
	a.chunks[a.cur] = append(c, v...)
	return a.chunks[a.cur][len(c) : len(c)+len(v) : len(c)+len(v)]
}

// reset empties the arena for refilling.
func (a *valueArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}

// commit makes one attempt's output the task's. The per-task CAS
// arbitrates between racing attempts: exactly one can win, and the
// winner sends its runs to their reducers — or, map-only, hands its
// pairs to the job's Output. won=false means another attempt committed
// first (the caller drops out: its runs are plain heap bytes that were
// never sent). A map-only attempt's scratch returns either way. An
// Output failure after the CAS is not an attempt fault: the task has
// committed and cannot retry, so the error aborts the job (won=true,
// err!=nil).
func (env *runEnv) commit(st *mapTask, attempt int, out *MapOutput) (won bool, err error) {
	defer out.scratch.release()
	if !st.committed.CompareAndSwap(false, true) {
		return false, nil
	}
	st.task = TaskMetrics{
		Duration:   max(out.Duration, time.Nanosecond), // keep the speculation median well-defined
		InputBytes: st.seg.Bytes(),
		Records:    int64(len(st.seg.Records)),
	}
	if len(out.Runs) > 0 { // a map-only attempt publishes none
		st.task.OutBytes = make([]int64, env.conf.NumReducers)
	}
	for _, r := range out.Runs {
		st.task.OutBytes[r.Part] = int64(len(r.Seg))
	}
	st.emitted, st.logical = out.Emitted, out.LogicalOutBytes
	st.commitDur.Store(int64(st.task.Duration))
	env.reg.Histogram(MetricMapTaskNS).Observe(int64(st.task.Duration))
	env.commitSpan(&env.maps, st.id, attempt)
	if env.job.Reduce == nil {
		if env.job.Output == nil {
			return true, nil
		}
		pairs := out.scratch.parts[0]
		if err = env.job.Output(st.id, func(yield func(string, []byte) bool) {
			for i := range pairs {
				if !yield(pairs[i].key, pairs[i].value) {
					return
				}
			}
		}); err != nil {
			err = fmt.Errorf("mapreduce %q: map task %d: output: %w", env.job.Name, st.id, err)
		}
		return true, err
	}
	for _, r := range out.Runs {
		env.reg.Histogram(MetricRunBytes).Observe(int64(len(r.Seg)))
		env.conf.Trace.Start(obs.KindRunCommit, fmt.Sprintf("map-%d", st.id)).
			Attr(obs.AttrTask, int64(r.Task)).Attr(obs.AttrAttempt, int64(r.Attempt)).
			Attr(obs.AttrPart, int64(r.Part)).Attr(obs.AttrBytes, int64(len(r.Seg))).End()
		env.transport[r.Part] <- r
	}
	return true, nil
}

// speculationWatchdog launches one backup attempt for any map task still
// running after speculationMultiple times the median committed-task
// duration, once at least half the tasks have committed. First finisher
// wins at commit; the loser's output is dropped.
func (env *runEnv) speculationWatchdog(states []*mapTask, stop <-chan struct{}) {
	tick := time.NewTicker(speculationTick)
	defer tick.Stop()
	durs := make([]int64, 0, len(states))
	for {
		select {
		case <-stop:
			return
		case <-env.ctx.Done():
			return
		case <-tick.C:
		}
		durs = durs[:0]
		for _, st := range states {
			if d := st.commitDur.Load(); d > 0 {
				durs = append(durs, d)
			}
		}
		if len(durs)*2 < len(states) {
			continue
		}
		slices.Sort(durs)
		median := durs[len(durs)/2]
		threshold := max(time.Duration(median)*speculationMultiple, speculationTick)
		now := time.Now().UnixNano()
		for _, st := range states {
			if st.committed.Load() {
				continue
			}
			start := st.firstStart.Load()
			if start == 0 || time.Duration(now-start) < threshold {
				continue
			}
			st.mu.Lock()
			if !st.finished && st.backup == nil && !st.committed.Load() {
				b := make(chan struct{})
				st.backup = b
				env.specWG.Add(1)
				env.record(MetricSpecTasks, 1)
				go env.runBackup(st, b)
			}
			st.mu.Unlock()
		}
	}
}

// runBackup is one speculative map attempt racing the task's driver.
func (env *runEnv) runBackup(st *mapTask, b chan struct{}) {
	defer env.specWG.Done()
	defer close(b)
	id := int(st.attemptSeq.Add(1) - 1)
	out, err := env.runMapAttempt(st, id, true)
	if err != nil {
		return // the driver's own attempts decide the task's fate
	}
	if won, cerr := env.commit(st, id, out); cerr != nil {
		st.err = cerr // output failure after commit: abort
	} else if won {
		env.record(MetricSpecWins, 1)
	}
}

// runReduceTask is partition p's reduce task: it decodes the
// partition's committed runs into its table, then each attempt of the
// loop groups them and streams the key groups to the user reduce
// function. Grouping never mutates the runs' records, so a retry
// regroups the identical committed inputs and re-invokes Reduce for
// every group, which the ReduceFunc contract requires to be idempotent. The task's Duration is its active
// work: decoding its runs and its attempts, not waiting for map output
// or a backoff.
func (env *runEnv) runReduceTask(p int) (TaskMetrics, error) {
	t := partTables.Get().(*partTable)
	defer t.release()
	inBytes, active, err := env.collectRuns(p, t)
	if err != nil {
		return TaskMetrics{}, fmt.Errorf("mapreduce %q: reduce task %d: %w", env.job.Name, p, err)
	}
	task := TaskMetrics{InputBytes: inBytes}
	err = env.runTask(&env.reduces, p, nil, func(id int) (int, error) {
		err := env.runAttempt(&env.reduces, p, id, false, func(faults AttemptFaults) (int64, error) {
			t0 := time.Now()
			groups, err := env.reduceGroups(p, t, faults)
			d := time.Since(t0)
			active += d
			if err == nil {
				env.reg.Histogram(MetricReduceTaskNS).Observe(int64(d))
				task.Records = groups
			}
			return groups, err
		})
		if err == nil {
			env.commitSpan(&env.reduces, p, id)
		}
		return id, err
	})
	task.Duration = active
	return task, err
}
