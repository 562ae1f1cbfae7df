package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// runCapture is a RunSink that keeps what it is handed.
type runCapture []mapreduce.Run

func (c *runCapture) Publish(r mapreduce.Run) error {
	*c = append(*c, r)
	return nil
}

// TestWorkerRunsOneJobConcurrently: two assignments of one job reach one
// worker over two connections and run side by side — the worker keeps
// nothing per job to serialize them on. Each map waits, bounded, until
// both have started, so assignments run one at a time fail here. Each
// comes back with the runs ExecuteMap produces over its segment and with
// only its own spans: every assignment traces into a sink of its own.
func TestWorkerRunsOneJobConcurrently(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, _ := startWorker(t)
	traced := func(trace *obs.Trace) mapreduce.MapFunc {
		return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
			trace.Start(obs.KindMapExec, "exec").Attr(obs.AttrTask, int64(mapperID)).End()
			for _, rec := range seg.Records {
				emit(string(rec[:1]), rec)
			}
			return nil
		}
	}
	var started atomic.Int32
	both := make(chan struct{})
	RegisterJob("concurrent-unit-test", func(trace *obs.Trace) mapreduce.MapFunc {
		mapFn := traced(trace)
		return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
			if started.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(10 * time.Second):
				return errors.New("the job's other assignment never ran alongside this one")
			}
			return mapFn(mapperID, seg, emit)
		}
	})
	spec := JobSpec{Query: "concurrent-unit-test", NumReducers: 3}

	type attempt struct {
		task, attempt int
		seg           *mapreduce.Segment
		out           *mapreduce.MapOutput
		err           error
	}
	attempts := []*attempt{{task: 3, attempt: 1}, {task: 5, attempt: 2}}
	var wg sync.WaitGroup
	for _, a := range attempts {
		a.seg = &mapreduce.Segment{ID: a.task}
		for i := range 40 {
			a.seg.Records = append(a.seg.Records, fmt.Appendf(nil, "%c-%d-%d", 'a'+i%7, a.task, i))
		}
		// A pool per assignment: each leases its own connection.
		p, err := NewPool(spec, []Endpoint{ep})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.out, a.err = p.RunMap(context.Background(), a.task, a.attempt, a.seg, nil)
		}()
	}
	wg.Wait()

	for _, a := range attempts {
		if a.err != nil {
			t.Fatalf("task %d attempt %d: %v", a.task, a.attempt, a.err)
		}
		var want runCapture
		if _, err := mapreduce.ExecuteMap(traced(nil), a.seg, a.task, a.attempt, spec.NumReducers, false, nil, &want); err != nil {
			t.Fatal(err)
		}
		if len(a.out.Runs) != len(want) {
			t.Fatalf("task %d: %d runs from the worker, ExecuteMap %d", a.task, len(a.out.Runs), len(want))
		}
		for i, r := range a.out.Runs {
			w := want[i]
			if r.Task != w.Task || r.Attempt != w.Attempt || r.Part != w.Part || !bytes.Equal(r.Seg, w.Seg) {
				t.Errorf("task %d run %d: the worker's (task %d attempt %d part %d, %d bytes) differs from ExecuteMap's (task %d attempt %d part %d, %d bytes)",
					a.task, i, r.Task, r.Attempt, r.Part, len(r.Seg), w.Task, w.Attempt, w.Part, len(w.Seg))
			}
		}
		kinds := map[string]int{}
		for _, sp := range a.out.Spans {
			kinds[sp.Kind]++
			if sp.Attr(obs.AttrTask) != int64(a.task) {
				t.Errorf("task %d's connection carried a %s span of task %d", a.task, sp.Kind, sp.Attr(obs.AttrTask))
			}
			if sp.Kind == obs.KindSpillEncode && sp.Attr(obs.AttrAttempt) != int64(a.attempt) {
				t.Errorf("task %d attempt %d's connection carried a spill span of attempt %d", a.task, a.attempt, sp.Attr(obs.AttrAttempt))
			}
		}
		if kinds[obs.KindMapExec] != 1 || kinds[obs.KindSpillEncode] != 1 || len(a.out.Spans) != 2 {
			t.Errorf("task %d: spans by kind %v, want its one exec and one spill span", a.task, kinds)
		}
	}
}
