package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// checkGoroutineLeaks fails the test if goroutines have not returned to
// the baseline by cleanup (same pattern as the engine's fault tests).
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

// startWorker runs an in-process Worker on a loopback listener and
// returns its endpoint. Cleanup waits for Serve to return, so the leak
// check sees the accept loop and every connection goroutine gone.
func startWorker(t *testing.T) (Endpoint, *Worker) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker serve: %v", err)
		}
		if n := w.Active(); n != 0 {
			t.Errorf("worker still serving %d connections after shutdown", n)
		}
	})
	return Dial(ln.Addr().String()), w
}

// silentWorker accepts connections and answers the hello exchange, then
// reads and discards everything: an assignment sent to it never gets a
// reply. It exists to pin the pool's context-cancellation path.
func silentWorker(t *testing.T) Endpoint {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				stop := context.AfterFunc(ctx, func() { conn.Close() })
				defer stop()
				if NewFrameConn(conn).AcceptHello() != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn) // swallow assignments forever
			}()
		}
	}()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		wg.Wait()
	})
	return Dial(ln.Addr().String())
}

// testSpec is a registered no-op job for pool unit tests: identity
// grouping on the record's first byte.
func testSpec(t *testing.T) JobSpec {
	t.Helper()
	RegisterJob("cluster-unit-test", func(*obs.Trace) mapreduce.MapFunc {
		return func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
			for _, rec := range seg.Records {
				if len(rec) == 0 {
					continue
				}
				emit(string(rec[:1]), rec)
			}
			return nil
		}
	})
	return JobSpec{Query: "cluster-unit-test", NumReducers: 2}
}

func testSegment() *mapreduce.Segment {
	return &mapreduce.Segment{ID: 0, Records: [][]byte{
		[]byte("alpha"), []byte("beta"), []byte("avocado"), []byte("banana"),
	}}
}

// TestPoolRunMapRoundTrip: one attempt through a real worker over
// loopback TCP produces runs addressed to the right task/attempt and
// sane metrics, and the pool and worker shut down leak-free.
func TestPoolRunMapRoundTrip(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out, err := p.RunMap(context.Background(), 3, 1, testSegment(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) == 0 {
		t.Fatal("no runs returned")
	}
	for _, r := range out.Runs {
		if r.Task != 3 || r.Attempt != 1 {
			t.Errorf("run addressed to task %d attempt %d, want 3/1", r.Task, r.Attempt)
		}
		if r.Part < 0 || r.Part >= 2 {
			t.Errorf("run partition %d out of range", r.Part)
		}
		if len(r.Seg) == 0 {
			t.Errorf("run for partition %d has an empty segment", r.Part)
		}
	}
	if out.Emitted != 4 {
		t.Errorf("metrics emitted=%d, want 4", out.Emitted)
	}
	if out.Duration <= 0 {
		t.Errorf("non-positive duration %v", out.Duration)
	}
}

// TestPoolContextCancellation: a cancelled context unblocks RunMap
// promptly even when the worker never answers, and an already-cancelled
// context never reaches the wire. No goroutines or connections leak.
func TestPoolContextCancellation(t *testing.T) {
	checkGoroutineLeaks(t)
	spec := testSpec(t)
	p, err := NewPool(spec, []Endpoint{silentWorker(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunMap(ctx, 0, 0, testSegment(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RunMap(ctx, 0, 1, testSegment(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %v — the read did not unblock", d)
	}
}

// TestPoolWorkerErrorKeepsConnection: a worker-side attempt failure
// (here: an unregistered job) comes back as an error without killing
// the connection — the next attempt on the same pool still runs.
func TestPoolWorkerErrorKeepsConnection(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, w := startWorker(t)
	p, err := NewPool(JobSpec{Query: "no-such-job", NumReducers: 2}, []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 3; i++ {
		_, err := p.RunMap(context.Background(), i, 0, testSegment(), nil)
		if err == nil || !strings.Contains(err.Error(), "no job registered") {
			t.Fatalf("attempt %d: got %v, want unregistered-job error", i, err)
		}
	}
	if n := w.Active(); n != 1 {
		t.Errorf("worker serving %d connections, want the original 1 — errors must not retire conns", n)
	}
}

// TestPoolRetiresAndRedials: a worker killed by the plan as an attempt
// starts takes its connection with it; the pool retires the lease, and
// the background redial restores capacity so later attempts succeed
// against the same single worker.
func TestPoolRetiresAndRedials(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, _ := startWorker(t)
	spec := testSpec(t)
	// Rate 1 with MaxAttempts 3: attempts 0 and 1 are killed, attempt 2
	// (final) is spared by construction.
	plan := mapreduce.NewFaultPlan(7).WithRate(1).WithKinds(mapreduce.KindKill)
	p, err := NewPool(spec, []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var failures int
	for attempt := 0; attempt < 3; attempt++ {
		faults := plan.Arm(0, attempt, 3, mapreduce.PointMapStart)
		_, err := p.RunMap(context.Background(), 0, attempt, testSegment(), faults)
		if attempt < 2 {
			if err == nil {
				t.Fatalf("attempt %d: injection did not fire", attempt)
			}
			failures++
			continue
		}
		if err != nil {
			t.Fatalf("final attempt must be spared and succeed: %v", err)
		}
	}
	if failures != 2 || plan.InjectedAt(mapreduce.PointMapStart, mapreduce.KindKill) != 2 {
		t.Fatalf("%d injected failures, %d kills armed, want 2 and 2",
			failures, plan.InjectedAt(mapreduce.PointMapStart, mapreduce.KindKill))
	}
}

// TestPoolAllWorkersLost: when every endpoint is gone for good, acquire
// fails fast instead of hanging.
func TestPoolAllWorkersLost(t *testing.T) {
	checkGoroutineLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Serve(ctx, ln) }()
	p, err := NewPool(testSpec(t), []Endpoint{Dial(ln.Addr().String())})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Kill the worker for good, then force the pool to notice: the
	// leased conn breaks, and every redial is refused.
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunMap(context.Background(), 0, 0, testSegment(), nil); err == nil {
		t.Fatal("attempt against a dead worker succeeded")
	}
	start := time.Now()
	_, err = p.RunMap(context.Background(), 0, 1, testSegment(), nil)
	if err == nil {
		t.Fatal("attempt with no live workers succeeded")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("dead-pool detection took %v", d)
	}
}

// TestSpeculativePlacementAntiAffinity pins the acquire scoring: with
// both workers free, a task's next attempt lands on the worker the
// previous attempt did NOT use — anti-affinity outweighs the segment
// cache bonus — so speculation gets an independent machine.
func TestSpeculativePlacementAntiAffinity(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep0, ep1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seg := testSegment()
	for attempt := 0; attempt < 3; attempt++ {
		if _, err := p.RunMap(context.Background(), 0, attempt, seg, nil); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	pl := p.Placements()
	if len(pl) != 3 {
		t.Fatalf("%d placements recorded, want 3", len(pl))
	}
	for i := 1; i < len(pl); i++ {
		if pl[i].Addr == pl[i-1].Addr {
			t.Errorf("attempt %d placed on %s, same worker as attempt %d — anti-affinity not applied",
				pl[i].Attempt, pl[i].Addr, pl[i-1].Attempt)
		}
	}
}

// TestWarmJobPlacementFollowsCache pins first-attempt placement across
// jobs: a second round of attempt 0s over the same segments lands each
// task on the worker that cached its segment in the first round, so the
// round ships digests only. Anti-affinity is for a task's retries and
// backups within a job, not for the next job's first attempt.
func TestWarmJobPlacementFollowsCache(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep0, ep1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const tasks, payload = 4, 32 << 10
	segs := make([]*mapreduce.Segment, tasks)
	for i := range segs {
		rec := make([]byte, payload)
		for j := range rec {
			rec[j] = byte('a' + (i+j)%5)
		}
		segs[i] = &mapreduce.Segment{ID: i, Records: [][]byte{rec}}
	}
	round := func() []Placement {
		for task, seg := range segs {
			if _, err := p.RunMap(context.Background(), task, 0, seg, nil); err != nil {
				t.Fatalf("task %d: %v", task, err)
			}
		}
		pl := p.Placements()
		return pl[len(pl)-tasks:]
	}
	first := round()
	if first[0].Addr == first[1].Addr {
		t.Fatalf("both first tasks placed on %s: the first round never used the second worker", first[0].Addr)
	}
	e0 := p.Stats().ConnEgressBytes
	second := round()
	for task := range segs {
		if second[task].Addr != first[task].Addr {
			t.Errorf("task %d: attempt 0 of the second round placed on %s, its segment is cached on %s",
				task, second[task].Addr, first[task].Addr)
		}
	}
	if d := p.Stats().ConnEgressBytes - e0; d >= payload {
		t.Errorf("the second round shipped %d bytes, want digests only (under one %d-byte payload)", d, payload)
	}
}

// TestSegmentCacheDigestOnly: after a worker acknowledges an attempt
// over a segment, later attempts ship only the digest (egress collapses
// below the payload size); after the worker loses its cache, the
// need-segment reply gets exactly one payload re-ship and the attempt
// still succeeds.
func TestSegmentCacheDigestOnly(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, w := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte('a' + i%4)
	}
	seg := &mapreduce.Segment{ID: 7, Records: [][]byte{big}}
	payload := int64(len(big))

	egress := func() int64 { return p.Stats().ConnEgressBytes }
	e0 := egress()
	if _, err := p.RunMap(context.Background(), 0, 0, seg, nil); err != nil {
		t.Fatal(err)
	}
	if d := egress() - e0; d < payload {
		t.Fatalf("first attempt shipped %d bytes, expected the %d-byte payload", d, payload)
	}
	if n := w.CachedSegments(); n != 1 {
		t.Fatalf("worker caches %d segments, want 1", n)
	}

	e1 := egress()
	if _, err := p.RunMap(context.Background(), 0, 1, seg, nil); err != nil {
		t.Fatal(err)
	}
	if d := egress() - e1; d >= payload {
		t.Fatalf("cached attempt shipped %d bytes — digest-only path not taken", d)
	}

	w.DropSegmentCache()
	e2 := egress()
	if _, err := p.RunMap(context.Background(), 0, 2, seg, nil); err != nil {
		t.Fatalf("attempt after cache loss: %v", err)
	}
	if d := egress() - e2; d < payload {
		t.Fatalf("post-cache-loss attempt shipped %d bytes — need-segment re-ship did not happen", d)
	}
	if n := w.CachedSegments(); n != 1 {
		t.Fatalf("worker caches %d segments after re-ship, want 1", n)
	}
}

// TestSegmentCacheForgedLaneNeverShares: a segment cached under a digest
// that shares lane 0 of another segment's wire digest is never served in
// that segment's place. Whatever the pool believes a worker holds, the
// worker resolves a digest-only assignment by both lanes and asks for
// the payload when it lacks it; keyed by one lane, it would have run the
// job over the wrong records.
func TestSegmentCacheForgedLaneNeverShares(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, w := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := &mapreduce.Segment{ID: 1, Records: [][]byte{[]byte("alpha"), []byte("avocado")}}
	y := &mapreduce.Segment{ID: 1, Records: [][]byte{[]byte("banana")}}
	dy := wireDigest(y)
	forged := mapreduce.Digest{dy[0], dy[1] ^ 1}
	checkY := func(attempt int) {
		t.Helper()
		out, err := p.RunMap(context.Background(), 0, attempt, y, nil)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if out.Emitted != 1 {
			t.Fatalf("attempt %d emitted %d, want y's 1 — served x from a forged cache entry",
				attempt, out.Emitted)
		}
	}

	// Both sides hold x under the forged key.
	w.cacheSegment(forged, x)
	p.markCached(ep, forged, 0)
	checkY(0)

	// The pool believes y is cached, but the worker holds only x under the
	// forged key: the digest-only assignment must miss and re-ship.
	w.DropSegmentCache()
	w.cacheSegment(forged, x)
	p.markCached(ep, dy, 0)
	checkY(1)
}

// workerMapPoints are the map-attempt points a worker fires.
var workerMapPoints = []mapreduce.FaultPoint{mapreduce.PointMapStart, mapreduce.PointMapEmit,
	mapreduce.PointMapMid, mapreduce.PointRunSend, mapreduce.PointSpillWrite}

// shipAssign arms a map attempt's faults and returns them as the worker
// decodes them from the assign frame.
func shipAssign(t *testing.T, plan *mapreduce.FaultPlan, task, attempt, maxAttempts int) mapreduce.AttemptFaults {
	t.Helper()
	a, err := decodeAssign(encodeAssign(&assignment{task: task, attempt: attempt,
		seg: testSegment(), faults: plan.Arm(task, attempt, maxAttempts, workerMapPoints...)}))
	if err != nil {
		t.Fatalf("assign (%d, %d): %v", task, attempt, err)
	}
	return a.faults
}

// TestChaosPlanDeterminism pins the plan's contract as a worker sees
// it: the fault field of a map attempt's assign frame is pure in
// (seed, task, attempt), empty on final attempts, divergent across
// seeds, and empty for a nil or rate-0 plan.
func TestChaosPlanDeterminism(t *testing.T) {
	plan, again := mapreduce.NewFaultPlan(42).WithRate(0.4), mapreduce.NewFaultPlan(42).WithRate(0.4)
	for task := 0; task < 20; task++ {
		for attempt := 0; attempt < 6; attempt++ {
			f1, f2 := shipAssign(t, plan, task, attempt, 4), shipAssign(t, again, task, attempt, 4)
			if !slices.Equal(f1, f2) {
				t.Fatalf("assign (%d, %d) not deterministic: %+v vs %+v", task, attempt, f1, f2)
			}
			if attempt >= 3 && len(f1) != 0 {
				t.Fatalf("assign (%d, %d) carries %+v on a spared attempt", task, attempt, f1)
			}
		}
	}
	var injected, diverged int
	other := mapreduce.NewFaultPlan(43).WithRate(0.4)
	for task := 0; task < 200; task++ {
		f, fo := shipAssign(t, plan, task, 0, 4), shipAssign(t, other, task, 0, 4)
		injected += len(f)
		if !slices.Equal(f, fo) {
			diverged++
		}
	}
	if want := 0.4 * 200 * float64(len(workerMapPoints)); float64(injected) < want*0.85 || float64(injected) > want*1.15 {
		t.Errorf("rate 0.4 plan shipped %d faults over 200 tasks, want ~%.0f — mixer is biased", injected, want)
	}
	if diverged == 0 {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
	if f := shipAssign(t, nil, 0, 0, 4); len(f) != 0 {
		t.Errorf("nil plan shipped %+v", f)
	}
	if f := shipAssign(t, mapreduce.NewFaultPlan(42).WithRate(0), 0, 0, 4); len(f) != 0 {
		t.Errorf("rate-0 plan shipped %+v", f)
	}
}

// CachedSegments reports the content-addressed segment cache size.
func (w *Worker) CachedSegments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// DropSegmentCache empties the segment cache — the test hook that
// forces the need-segment re-ship path.
func (w *Worker) DropSegmentCache() {
	w.mu.Lock()
	w.segs = map[mapreduce.Digest]*mapreduce.Segment{}
	w.segOrder = w.segOrder[:0]
	w.mu.Unlock()
}

// Placements returns where every map attempt was dispatched, in
// dispatch order.
func (p *Pool) Placements() []Placement {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Placement(nil), p.placements...)
}
