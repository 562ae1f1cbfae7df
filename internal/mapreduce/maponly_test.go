package mapreduce

import (
	"errors"
	"fmt"
	"iter"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// mapOnlyCapture runs a deterministic multi-emit map-only job and returns,
// per task, how often Output was called and what it was handed, rendered
// in delivery order. Every value is stamped with the number of the map
// call that emitted it, so an output stitched from two attempts shows;
// the stamp is checked to be uniform and left out of the rendering, which
// is then comparable across fault schedules. pre runs at the head of
// every map call.
func mapOnlyCapture(t *testing.T, segs []*Segment, conf Config, pre func(task int, call int32)) (outputs []string, calls []int32, m *Metrics) {
	t.Helper()
	invoked := make([]atomic.Int32, len(segs))
	delivered := make([]atomic.Int32, len(segs))
	outputs, calls = make([]string, len(segs)), make([]int32, len(segs))
	job := &Job{
		Name: "map-only-capture",
		Map: func(id int, seg *Segment, emit Emit) error {
			call := invoked[id].Add(1)
			if pre != nil {
				pre(id, call)
			}
			for i, rec := range seg.Records {
				// Descending keys with repeats: emit order is neither key
				// order nor record order of any one key.
				emit(fmt.Sprintf("key-%02d", 13-(len(rec)+i)%13), fmt.Appendf(nil, "%s#%d", rec, call))
				if i%3 == 0 {
					emit(fmt.Sprintf("key-%02d", i%7), fmt.Appendf(nil, "%s#%d", rec, call))
				}
			}
			return nil
		},
		Output: func(task int, pairs iter.Seq2[string, []byte]) error {
			delivered[task].Add(1)
			var b strings.Builder
			for key, value := range pairs {
				rec, stamp, _ := strings.Cut(string(value), "#")
				var call int32
				fmt.Sscan(stamp, &call)
				if calls[task] != 0 && calls[task] != call {
					t.Errorf("task %d: output mixes map calls %d and %d", task, calls[task], call)
				}
				calls[task] = call
				fmt.Fprintf(&b, "%s=%s ", key, rec)
			}
			outputs[task] = b.String()
			return nil
		},
		Conf: conf,
	}
	m, err := job.Run(segs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for task := range delivered {
		if n := delivered[task].Load(); n != 1 {
			t.Errorf("task %d: output delivered %d times, want exactly once", task, n)
		}
	}
	return outputs, calls, m
}

// TestChaosMapOnlyDelivery is the chaos sweep over the map-only shape:
// kill/delay/error faults at map start, at the first emit, mid-emit and
// at the spill-write point (the last before commit), retries and
// speculation on. Every task's output must be delivered exactly once,
// whole, from one attempt, in emit order, and equal to the fault-free
// run's; and nothing of the shuffle may have run. CHAOS_SEEDS widens the
// sweep.
func TestChaosMapOnlyDelivery(t *testing.T) {
	checkGoroutineLeaks(t)
	segs := countingSegments(6, 60)
	reg := obs.NewRegistry()
	want, _, wm := mapOnlyCapture(t, segs, Config{NumReducers: 3, Parallelism: 4, Registry: reg}, nil)
	for task, seg := range segs {
		var b strings.Builder // the map's emit sequence, replayed
		for i, rec := range seg.Records {
			fmt.Fprintf(&b, "key-%02d=%s ", 13-(len(rec)+i)%13, rec)
			if i%3 == 0 {
				fmt.Fprintf(&b, "key-%02d=%s ", i%7, rec)
			}
		}
		if want[task] != b.String() {
			t.Fatalf("task %d: fault-free output is not the emit sequence\ngot:  %s\nwant: %s", task, want[task], b.String())
		}
	}
	if wm.ShuffleBytes != 0 || wm.ShuffleRecords != 0 || reg.Counter(MetricReduceAttempts).Value() != 0 ||
		wm.Groups != 0 || len(wm.MapTasks) != len(segs) {
		t.Fatalf("a map-only job crossed the shuffle: %+v", wm)
	}

	var injected int64
	for seed := 0; seed < chaosSeedCount(t, 12); seed++ {
		plan := NewFaultPlan(int64(seed)).WithRate(0.4).WithMaxDelay(time.Millisecond).
			WithPoints(PointMapStart, PointMapEmit, PointMapMid, PointSpillWrite)
		got, _, gm := mapOnlyCapture(t, segs, fastRetries(Config{
			NumReducers: 3, Parallelism: 4, MaxAttempts: 4, Speculation: true, Faults: plan}), nil)
		for task := range want {
			if got[task] != want[task] {
				t.Fatalf("seed %d task %d: output diverged from the fault-free run\nchaos: %s\nclean: %s",
					seed, task, got[task], want[task])
			}
		}
		if gm.MapAttempts < int64(len(segs)) || len(gm.MapTasks) != len(segs) {
			t.Fatalf("seed %d: %d attempts, %d committed tasks", seed, gm.MapAttempts, len(gm.MapTasks))
		}
		injected += plan.Injected()
	}
	if injected == 0 {
		t.Error("chaos sweep injected no faults — the harness is not arming")
	}
}

// TestMapOnlyLosingAttemptDropped: the straggler's first attempt runs to
// completion after its backup has committed; its whole output exists and
// must go nowhere.
func TestMapOnlyLosingAttemptDropped(t *testing.T) {
	checkGoroutineLeaks(t)
	const tasks, straggler = 8, 5
	reg := obs.NewRegistry()
	_, calls, m := mapOnlyCapture(t, countingSegments(tasks, 6),
		Config{Parallelism: 4, Speculation: true, Registry: reg}, func(task int, call int32) {
			if task == straggler && call == 1 {
				time.Sleep(150 * time.Millisecond)
			}
		})
	if calls[straggler] != 2 {
		t.Errorf("straggler's output came from map call %d, want the backup's (2)", calls[straggler])
	}
	wins := reg.Counter(MetricSpecWins).Value()
	if wins < 1 || m.MapAttempts != tasks+1 || len(m.MapTasks) != tasks {
		t.Errorf("wins %d, attempts %d, committed %d: want a winning backup, %d attempts, %d tasks",
			wins, m.MapAttempts, len(m.MapTasks), tasks+1, tasks)
	}
}

// TestMapOnlyOutputErrorAborts: a task that has committed cannot retry,
// so an Output error is the job's.
func TestMapOnlyOutputErrorAborts(t *testing.T) {
	checkGoroutineLeaks(t)
	boom := errors.New("sink full")
	job := &Job{
		Name: "map-only-output-error",
		Map:  func(id int, seg *Segment, emit Emit) error { emit("k", seg.Records[0]); return nil },
		Output: func(task int, _ iter.Seq2[string, []byte]) error {
			if task == 2 {
				return boom
			}
			return nil
		},
		Conf: fastRetries(Config{MaxAttempts: 3}),
	}
	m, err := job.Run(countingSegments(4, 2))
	if !errors.Is(err, boom) || m != nil {
		t.Fatalf("Run = %v, %v; want the Output error", m, err)
	}
}
