package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// ---- shared harness ----

// checkGoroutineLeaks snapshots the goroutine count and asserts at test
// cleanup that it returns to the baseline — a hand-rolled goleak. The
// poll loop tolerates goroutines still draining when the job returns.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d running, baseline %d\n%s",
					runtime.NumGoroutine(), base, buf[:n])
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// fastRetries keeps chaos-era retry backoffs out of the test budget.
func fastRetries(conf Config) Config {
	conf.RetryBackoff = 100 * time.Microsecond
	return conf
}

// withCommitLog traces conf into a memory sink. The engine emits a
// run_commit span immediately before it sends a committed run to its
// reducer, so those spans log every run a reducer received — what the
// tests inspect to prove a losing or killed attempt's runs never reached
// one.
func withCommitLog(conf Config) (Config, *obs.MemSink) {
	sink := obs.NewMemSink()
	conf.Trace = obs.NewTrace(sink)
	return conf, sink
}

// checkOneAttemptPerTask asserts the commit protocol's visible outcome:
// each (task, partition) run was sent at most once and every run of a
// task came from the same (winning) attempt. It returns task → winner.
func checkOneAttemptPerTask(tb testing.TB, log *obs.MemSink) map[int]int {
	tb.Helper()
	winner := map[int]int{}
	seen := map[[2]int64]bool{}
	for _, sp := range log.Spans() {
		if sp.Kind != obs.KindRunCommit {
			continue
		}
		task, attempt, part := sp.Attr(obs.AttrTask), int(sp.Attr(obs.AttrAttempt)), sp.Attr(obs.AttrPart)
		if seen[[2]int64{task, part}] {
			tb.Errorf("task %d partition %d sent twice", task, part)
		}
		seen[[2]int64{task, part}] = true
		if w, ok := winner[int(task)]; ok && w != attempt {
			tb.Errorf("task %d sent runs from attempts %d and %d", task, w, attempt)
		}
		winner[int(task)] = attempt
	}
	return winner
}

// TestBackoffDelay pins the retry curve: RetryBackoff before the second
// attempt, doubling per further attempt, capped at maxBackoffFactor
// times the base.
func TestBackoffDelay(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		base  time.Duration
		retry int
		want  time.Duration
	}{
		{ms, 1, ms}, {ms, 2, 2 * ms}, {ms, 3, 4 * ms}, {ms, 6, 32 * ms},
		{ms, 7, 50 * ms},                     // 64ms, capped
		{ms, 8, 50 * ms}, {ms, 200, 50 * ms}, // far past the cap: no overflow
		{10 * ms, 1, 10 * ms}, {10 * ms, 4, 80 * ms}, {10 * ms, 7, 500 * ms},
		{100 * time.Microsecond, 9, 5 * ms},
	} {
		if got := backoffDelay(Config{RetryBackoff: tc.base}, tc.retry); got != tc.want {
			t.Errorf("backoffDelay(base %v, retry %d) = %v, want %v", tc.base, tc.retry, got, tc.want)
		}
	}
	if got := backoffDelay(Config{}.withDefaults(), 1); got != ms {
		t.Errorf("default first retry delay = %v, want 1ms", got)
	}
}

// countingSegments builds numSegments segments of numbered records.
func countingSegments(numSegments, perSeg int) []*Segment {
	segs := make([]*Segment, numSegments)
	for i := range segs {
		segs[i] = &Segment{ID: i}
		for r := 0; r < perSeg; r++ {
			segs[i].Records = append(segs[i].Records, []byte(fmt.Sprintf("%d-%d", i, r)))
		}
	}
	return segs
}

// runIdempotentCapture executes a deterministic multi-emit job whose
// reduce side is idempotent (retry-safe): each group's delivered stream
// is rendered to a string and stored keyed by (reducer, key), overwrite
// on re-execution. The returned snapshot is a canonical rendering,
// comparable byte for byte across engine configurations and fault
// schedules.
func runIdempotentCapture(t *testing.T, segs []*Segment, conf Config) (string, *Metrics) {
	t.Helper()
	var mu sync.Mutex
	groups := map[string]string{}
	job := &Job{
		Name: "chaos-capture",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				emit(fmt.Sprintf("key-%d", (len(rec)+int(rec[0]))%13), rec)
				if i%3 == 0 {
					emit(fmt.Sprintf("key-%d", i%7), rec)
				}
			}
			return nil
		},
		Reduce: func(r, _ int, key string, values []Shuffled) error {
			var b strings.Builder
			for _, v := range values {
				fmt.Fprintf(&b, "%d:%s ", v.MapperID, v.Value)
			}
			mu.Lock()
			groups[fmt.Sprintf("%d/%s", r, key)] = b.String()
			mu.Unlock()
			return nil
		},
		Conf: conf,
	}
	m, err := job.Run(segs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s => %s\n", k, groups[k])
	}
	return b.String(), m
}

// ---- retry lifecycle ----

// TestTaskRetries runs each row of the one attempt loop for each task
// kind: a spent budget fails the job naming the task and every attempt,
// a task recovers after transient failures, and a job cancelled while
// its tasks sleep in a backoff returns ctx's error at once and leaves no
// goroutine. Each job has two tasks of the kind under test, whose
// attempts call fail first; the other kind's tasks never fail.
func TestTaskRetries(t *testing.T) {
	const tasks, attempts = 2, 3
	dies := errors.New("attempt dies")
	rows := []struct {
		name    string
		backoff time.Duration
		fail    func(attempt int, cancel func()) error
		check   func(t *testing.T, kind string, err error, reg map[string]int64, keys int)
	}{
		{"exhausted", 0, func(int, func()) error { return dies },
			func(t *testing.T, kind string, err error, reg map[string]int64, _ int) {
				if !errors.Is(err, dies) {
					t.Fatalf("err = %v, want the attempts' errors", err)
				}
				for task := range tasks {
					if want := fmt.Sprintf("%s task %d failed after %d attempts", kind, task, attempts); !strings.Contains(err.Error(), want) {
						t.Errorf("error does not say %q: %v", want, err)
					}
				}
				for a := range attempts {
					if want := fmt.Sprintf("attempt %d: ", a); strings.Count(err.Error(), want) != tasks {
						t.Errorf("error does not name %q once per task: %v", want, err)
					}
				}
				if reg[MetricTaskRetries] != tasks*(attempts-1) {
					t.Errorf("task_retries = %d, want %d", reg[MetricTaskRetries], tasks*(attempts-1))
				}
			}},
		{"recovers", 0, func(a int, _ func()) error {
			if a < attempts-1 {
				return dies
			}
			return nil
		}, func(t *testing.T, kind string, err error, reg map[string]int64, keys int) {
			if err != nil {
				t.Fatalf("the job should have recovered: %v", err)
			}
			if keys != tasks*5 {
				t.Errorf("reduced %d keys, want %d", keys, tasks*5)
			}
			if reg[MetricTaskRetries] != tasks*(attempts-1) {
				t.Errorf("task_retries = %d, want %d", reg[MetricTaskRetries], tasks*(attempts-1))
			}
		}},
		{"cancelled", time.Minute, func(a int, cancel func()) error {
			cancel()
			return dies
		}, func(t *testing.T, kind string, err error, reg map[string]int64, _ int) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if reg[MetricTaskRetries] != tasks {
				t.Errorf("task_retries = %d, want one backoff per task", reg[MetricTaskRetries])
			}
		}},
	}
	for _, row := range rows {
		for _, kind := range []string{"map", "reduce"} {
			t.Run(row.name+"/"+kind, func(t *testing.T) {
				checkGoroutineLeaks(t)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// tried counts each task's attempts: a map attempt calls Map
				// once, a reduce attempt starts at its partition's group 0.
				var tried [tasks]atomic.Int32
				// cancel, asked by every task, cancels the job once all
				// have failed and gone to sleep in their backoff.
				var asked atomic.Int32
				cancelAll := func() {
					if asked.Add(1) == tasks {
						time.AfterFunc(5*time.Millisecond, cancel)
					}
				}
				fail := func(task int) error { return row.fail(int(tried[task].Add(1))-1, cancelAll) }
				var mu sync.Mutex
				counts := map[string]int{}
				reg := obs.NewRegistry()
				job := &Job{
					Name: "retry-" + kind,
					Map: func(id int, seg *Segment, emit Emit) error {
						if kind == "map" {
							if err := fail(id); err != nil {
								return err
							}
						}
						for _, rec := range seg.Records {
							emit(string(rec), rec)
						}
						return nil
					},
					Reduce: func(r, group int, key string, values []Shuffled) error {
						if kind == "reduce" && group == 0 {
							if err := fail(r); err != nil {
								return err
							}
						}
						mu.Lock()
						counts[key] = len(values)
						mu.Unlock()
						return nil
					},
					Conf: Config{NumReducers: tasks, MaxAttempts: attempts, RetryBackoff: 100 * time.Microsecond,
						Registry: reg},
				}
				if row.backoff > 0 {
					job.Conf.RetryBackoff = row.backoff
				}
				t0 := time.Now()
				_, err := job.RunContext(ctx, countingSegments(tasks, 5))
				if d := time.Since(t0); d > 10*time.Second {
					t.Errorf("the job took %v", d)
				}
				snap := reg.Snapshot()
				attemptsMetric := map[string]string{"map": MetricMapAttempts, "reduce": MetricReduceAttempts}[kind]
				var want int64
				for task := range tried {
					want += int64(tried[task].Load())
				}
				if snap[attemptsMetric] != want || want < tasks {
					t.Errorf("%s = %d, want %d attempts over %d tasks", attemptsMetric, snap[attemptsMetric], want, tasks)
				}
				row.check(t, kind, err, snap, len(counts))
			})
		}
	}
}

// ---- speculation ----

func TestSpeculationFirstFinisherWins(t *testing.T) {
	checkGoroutineLeaks(t)
	const tasks, straggler = 8, 5
	var calls [tasks]atomic.Int32
	var mu sync.Mutex
	counts := map[string]int{}
	job := &Job{
		Name: "speculate",
		Map: func(id int, seg *Segment, emit Emit) error {
			// The straggler's first attempt stalls long enough for the
			// watchdog to launch a backup; the backup (second call for
			// the same task) runs at full speed and must win the commit.
			if id == straggler && calls[id].Add(1) == 1 {
				time.Sleep(150 * time.Millisecond)
			} else {
				calls[id].Add(1)
			}
			for _, rec := range seg.Records {
				emit(string(rec), nil)
			}
			return nil
		},
		Reduce: func(_, _ int, key string, values []Shuffled) error {
			mu.Lock()
			counts[key] = len(values)
			mu.Unlock()
			return nil
		},
	}
	var log *obs.MemSink
	reg := obs.NewRegistry()
	job.Conf, log = withCommitLog(Config{NumReducers: 2, Parallelism: 4, Speculation: true, Registry: reg})
	m, err := job.Run(countingSegments(tasks, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != tasks*6 {
		t.Errorf("got %d keys, want %d", len(counts), tasks*6)
	}
	// Both attempts of the straggler ran to completion and produced full
	// output; only the winner's may be published and merged.
	for key, n := range counts {
		if n != 1 {
			t.Errorf("key %q delivered %d times: a losing attempt's run was merged", key, n)
		}
	}
	if w := checkOneAttemptPerTask(t, log)[straggler]; w != 1 {
		t.Errorf("straggler's sent runs came from attempt %d, want the backup (1)", w)
	}
	if n := reg.Counter(MetricSpecTasks).Value(); n < 1 {
		t.Errorf("no speculative attempt launched (%s=%d)", MetricSpecTasks, n)
	}
	if n := reg.Counter(MetricSpecWins).Value(); n < 1 {
		t.Errorf("backup should have won the commit race (%s=%d)", MetricSpecWins, n)
	}
	if len(m.MapTasks) != tasks {
		t.Errorf("MapTasks = %d, want %d (losing attempt's metrics must not double-count)",
			len(m.MapTasks), tasks)
	}
}

// TestQueuedTasksAreNotStragglers: a task straggles from when its first
// attempt holds a task slot, not from when the job started it. Eight
// equal tasks on one slot queue behind each other; none is slow, so the
// watchdog launches no backup and each task runs one attempt.
func TestQueuedTasksAreNotStragglers(t *testing.T) {
	const tasks = 8
	reg := obs.NewRegistry()
	job := &Job{
		Name: "queued",
		Map: func(_ int, seg *Segment, emit Emit) error {
			time.Sleep(3 * time.Millisecond)
			for _, rec := range seg.Records {
				emit(string(rec), nil)
			}
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   Config{Parallelism: 1, Speculation: true, Registry: reg},
	}
	if _, err := job.Run(countingSegments(tasks, 4)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(MetricSpecTasks).Value(); n != 0 {
		t.Errorf("%s = %d for tasks that only queued, want 0", MetricSpecTasks, n)
	}
	if n := reg.Counter(MetricMapAttempts).Value(); n != tasks {
		t.Errorf("%s = %d, want %d", MetricMapAttempts, n, tasks)
	}
}

// TestChaosKillAtSpillWriteNeverPublishes kills every non-final attempt at
// PointSpillWrite — after its runs are sorted and encoded, the last
// point before commit — and checks the dead attempts' complete output is
// dropped: only the retry's runs are published, and the delivery equals
// the fault-free run's.
func TestChaosKillAtSpillWriteNeverPublishes(t *testing.T) {
	checkGoroutineLeaks(t)
	const tasks = 5
	segs := countingSegments(tasks, 30)
	want, wm := runIdempotentCapture(t, segs, Config{NumReducers: 3})
	plan := NewFaultPlan(5).WithRate(1).WithKinds(KindKill).WithPoints(PointSpillWrite)
	conf, log := withCommitLog(fastRetries(Config{
		NumReducers: 3, MaxAttempts: 2, Faults: plan}))
	got, gm := runIdempotentCapture(t, segs, conf)
	if got != want {
		t.Errorf("output after spill-write kills differs from the fault-free run:\n%s\nwant:\n%s", got, want)
	}
	if gm.ShuffleBytes != wm.ShuffleBytes || gm.ShuffleRecords != wm.ShuffleRecords {
		t.Errorf("killed attempts leaked into the accounting: %d bytes / %d records, fault-free %d / %d",
			gm.ShuffleBytes, gm.ShuffleRecords, wm.ShuffleBytes, wm.ShuffleRecords)
	}
	if n := plan.InjectedAt(PointSpillWrite, KindKill); n != tasks {
		t.Errorf("%d spill-write kills injected, want one per task (%d)", n, tasks)
	}
	if gm.MapAttempts != 2*tasks {
		t.Errorf("MapAttempts = %d, want %d", gm.MapAttempts, 2*tasks)
	}
	winners := checkOneAttemptPerTask(t, log)
	for task := 0; task < tasks; task++ {
		if winners[task] != 1 {
			t.Errorf("task %d sent attempt %d's runs, want the retry (1)", task, winners[task])
		}
	}
}

// ---- chaos differential at the engine level ----

// TestChaosDifferentialEngine is the engine-level half of the chaos
// suite: across seeds, inject kill/delay/error faults at every task
// boundary and assert the delivered reduce streams are byte-identical
// to the fault-free run. CHAOS_SEEDS widens the sweep (CI runs 100).
func TestChaosDifferentialEngine(t *testing.T) {
	checkGoroutineLeaks(t)
	seeds := chaosSeedCount(t, 12)
	segs := countingSegments(6, 60)
	clean := Config{NumReducers: 3, Parallelism: 4}
	want, wm := runIdempotentCapture(t, segs, clean)

	var injected int64
	for seed := 0; seed < seeds; seed++ {
		plan := NewFaultPlan(int64(seed)).WithMaxDelay(time.Millisecond)
		conf := fastRetries(Config{
			NumReducers: 3,
			Parallelism: 4,
			MaxAttempts: 4,
			Speculation: true,
			Faults:      plan,
		})
		got, gm := runIdempotentCapture(t, segs, conf)
		if got != want {
			t.Fatalf("seed %d: chaos run diverged from fault-free run\nchaos:\n%s\nclean:\n%s", seed, got, want)
		}
		if gm.Groups != wm.Groups || gm.ShuffleRecords != wm.ShuffleRecords || gm.ShuffleBytes != wm.ShuffleBytes {
			t.Fatalf("seed %d: accounting diverged: chaos %d/%d/%d, clean %d/%d/%d", seed,
				gm.Groups, gm.ShuffleRecords, gm.ShuffleBytes, wm.Groups, wm.ShuffleRecords, wm.ShuffleBytes)
		}
		injected += plan.Injected()
	}
	if injected == 0 {
		t.Error("chaos sweep injected no faults — the harness is not arming")
	}
}

// TestChaosKillsEveryAttemptFailsCleanly drives a job into exhaustion
// under unsparing kill faults and asserts the failure is a clean
// aggregated error, with nothing leaked.
func TestChaosKillsEveryAttemptFailsCleanly(t *testing.T) {
	checkGoroutineLeaks(t)
	plan := NewFaultPlan(7).
		WithRate(1).
		WithKinds(KindKill).
		WithPoints(PointMapStart).
		WithSpareFinal(false)
	job := &Job{
		Name: "all-killed",
		Map: func(id int, seg *Segment, emit Emit) error {
			emit("k", nil)
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   fastRetries(Config{NumReducers: 2, MaxAttempts: 3, Faults: plan}),
	}
	_, err := job.Run(countingSegments(3, 2))
	if err == nil {
		t.Fatal("job should have failed: every attempt killed")
	}
	if !strings.Contains(err.Error(), "killed") {
		t.Errorf("error should surface the kill faults: %v", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error should report the exhausted budget: %v", err)
	}
	if got := plan.InjectedAt(PointMapStart, KindKill); got < 3 {
		t.Errorf("expected at least one kill per task, got %d", got)
	}
}

// chaosSeedCount reads the CHAOS_SEEDS override used by the CI chaos
// job and verify.sh; def is the default sweep width.
func chaosSeedCount(t *testing.T, def int) int {
	t.Helper()
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() {
		return max(def/4, 2)
	}
	return def
}

// ---- determinism of the plan itself ----

// TestFaultPlanDeterministic is the one plan's contract, one row per
// point: a decision is a pure function of (seed, point, id, attempt);
// the hit rate over the unspared attempts sits at the configured rate; a
// recurring point's ordinal and a delay stay in range; distinct seeds
// diverge; Arm counts what it arms; and a nil or rate-0 plan arms
// nothing.
func TestFaultPlanDeterministic(t *testing.T) {
	const maxAttempts, ids = 4, 400
	for _, pt := range AllFaultPoints() {
		t.Run(pt.String(), func(t *testing.T) {
			for _, rate := range []float64{0.3, 1} {
				plan, again, other := NewFaultPlan(42).WithRate(rate), NewFaultPlan(42).WithRate(rate), NewFaultPlan(43).WithRate(rate)
				var hits, diverged int
				for id := 0; id < ids; id++ {
					for attempt := 0; attempt < maxAttempts+2; attempt++ {
						f, ok := plan.decide(pt, id, attempt, maxAttempts)
						if g, gok := again.decide(pt, id, attempt, maxAttempts); f != g || ok != gok {
							t.Fatalf("rate %v: decide(%d, %d) is not pure: %+v vs %+v", rate, id, attempt, f, g)
						}
						if g, gok := other.decide(pt, id, attempt, maxAttempts); f != g || ok != gok {
							diverged++
						}
						if !ok {
							continue
						}
						hits++
						if o := ordinals[pt]; f.At < int64(o.lo) || f.At > int64(o.lo+max(o.n, 1)-1) {
							t.Fatalf("rate %v: ordinal %d outside [%d, %d)", rate, f.At, o.lo, o.lo+o.n)
						}
						if (f.Kind == KindDelay) != (f.Delay > 0) || f.Delay > plan.maxDelay {
							t.Fatalf("rate %v: %v fault with delay %v", rate, f.Kind, f.Delay)
						}
						if armed := plan.Arm(id, attempt, maxAttempts, pt); len(armed) != 1 || armed[0] != f {
							t.Fatalf("rate %v: Arm gave %+v, decide %+v", rate, armed, f)
						}
					}
				}
				trials := ids * (maxAttempts - 1)
				if want := rate * float64(trials); float64(hits) < want*0.85 || float64(hits) > want*1.15 {
					t.Errorf("rate %v: %d of %d attempts armed, want ~%.0f", rate, hits, trials, want)
				}
				if rate < 1 && diverged == 0 {
					t.Errorf("rate %v: seeds 42 and 43 arm identical schedules", rate)
				}
				var injected int64
				for _, k := range AllFaultKinds() {
					injected += plan.InjectedAt(pt, k)
				}
				if injected != int64(hits) || plan.Injected() != injected {
					t.Errorf("rate %v: %d armed, counters say %d (total %d)", rate, hits, injected, plan.Injected())
				}
			}
		})
	}
	pts := AllFaultPoints()
	for id := 0; id < 100; id++ {
		if fs := (*FaultPlan)(nil).Arm(id, 0, maxAttempts, pts...); fs != nil {
			t.Fatalf("nil plan armed %+v", fs)
		}
		if fs := NewFaultPlan(42).WithRate(0).Arm(id, 0, maxAttempts, pts...); len(fs) != 0 {
			t.Fatalf("rate-0 plan armed %+v", fs)
		}
	}
}

// TestFaultPlanSparesFinalAttempt: the one spare-final rule, at every
// point. Under Config.MaxAttempts a rate-1 plan faults every attempt
// but the final one and the speculative IDs past it.
func TestFaultPlanSparesFinalAttempt(t *testing.T) {
	const maxAttempts = 4
	plan := NewFaultPlan(3).WithRate(1)
	for _, pt := range AllFaultPoints() {
		for task := 0; task < 50; task++ {
			for attempt := 0; attempt < maxAttempts+2; attempt++ {
				f, ok := plan.decide(pt, task, attempt, maxAttempts)
				if spared := attempt >= maxAttempts-1; ok == spared {
					t.Fatalf("%v task %d attempt %d of %d: armed %v (%+v), want %v",
						pt, task, attempt, maxAttempts, ok, f, !spared)
				}
			}
		}
	}
	if fs := NewFaultPlan(3).WithRate(1).WithSpareFinal(false).Arm(0, maxAttempts-1, maxAttempts, AllFaultPoints()...); len(fs) != len(AllFaultPoints()) {
		t.Errorf("WithSpareFinal(false) armed %d of %d points on the final attempt", len(fs), len(AllFaultPoints()))
	}
}

// ---- goroutine leaks on every exit path ----

func TestNoGoroutineLeakOnSuccess(t *testing.T) {
	checkGoroutineLeaks(t)
	segs := countingSegments(5, 30)
	if _, err := (&Job{
		Name: "ok",
		Map: func(id int, seg *Segment, emit Emit) error {
			for _, rec := range seg.Records {
				emit(string(rec), nil)
			}
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   Config{NumReducers: 3, Speculation: true},
	}).Run(segs); err != nil {
		t.Fatal(err)
	}
}

func TestNoGoroutineLeakOnFailure(t *testing.T) {
	checkGoroutineLeaks(t)
	if _, err := (&Job{
		Name:   "fail",
		Map:    func(int, *Segment, Emit) error { return errors.New("boom") },
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   fastRetries(Config{NumReducers: 2, MaxAttempts: 3, Speculation: true}),
	}).Run(countingSegments(4, 10)); err == nil {
		t.Fatal("expected failure")
	}
}

// TestNoGoroutineLeakOnCancel cancels mid-map: the run drains and returns
// the context's error, as a shuffle job and as a map-only one.
func TestNoGoroutineLeakOnCancel(t *testing.T) {
	for _, reduce := range []ReduceFunc{func(int, int, string, []Shuffled) error { return nil }, nil} {
		cancelMidMap(t, reduce)
	}
}

func cancelMidMap(t *testing.T, reduce ReduceFunc) {
	checkGoroutineLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	job := &Job{
		Name: "cancelled",
		Map: func(id int, seg *Segment, emit Emit) error {
			once.Do(func() { close(started) })
			time.Sleep(5 * time.Millisecond)
			for _, rec := range seg.Records {
				emit(string(rec), nil)
			}
			return nil
		},
		Reduce: reduce,
		Conf:   Config{NumReducers: 2, Parallelism: 2, MaxAttempts: 3, Speculation: true},
	}
	done := make(chan error, 1)
	go func() {
		_, err := job.RunContext(ctx, countingSegments(12, 5))
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not return")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := &Job{
		Name:   "precancel",
		Map:    func(int, *Segment, Emit) error { t.Error("map ran"); return nil },
		Reduce: func(int, int, string, []Shuffled) error { return nil },
	}
	if _, err := job.RunContext(ctx, countingSegments(2, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
