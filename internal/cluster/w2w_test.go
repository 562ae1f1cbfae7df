package cluster

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

// Worker-to-worker topology unit tests: the pool as RemoteMapper +
// RemoteReducer over real loopback workers, exercised directly so the
// shuffle routing, segment cache, placement scoring, and chaos recovery
// paths are each pinned in isolation (the queries package runs the
// full-engine differentials).

// w2wSegments returns two fixed segments whose keys (first byte) span
// both partitions of testSpec: "a" x3, "b" x2, "c" x1.
func w2wSegments() []*mapreduce.Segment {
	return []*mapreduce.Segment{
		{ID: 0, Records: [][]byte{
			[]byte("alpha"), []byte("beta"), []byte("avocado"), []byte("banana")}},
		{ID: 1, Records: [][]byte{[]byte("cherry"), []byte("apricot")}},
	}
}

// runW2WJob maps every segment at the given attempt and reduces both
// partitions, returning groups keyed by partition.
func runW2WJob(t *testing.T, p *Pool, mapAttempt, reduceAttempt int) map[int][]mapreduce.ReducedGroup {
	t.Helper()
	ctx := context.Background()
	commits := map[int][]mapreduce.Run{}
	for task, seg := range w2wSegments() {
		out, err := p.RunMap(ctx, task, mapAttempt, seg, nil)
		if err != nil {
			t.Fatalf("map task %d: %v", task, err)
		}
		for _, r := range out.Runs {
			if r.Seg != nil {
				t.Fatalf("w2w map returned run bytes, want receipts only: %+v", r)
			}
			if r.Bytes <= 0 {
				t.Fatalf("receipt without byte count: %+v", r)
			}
			commits[r.Part] = append(commits[r.Part], r)
		}
	}
	groups := map[int][]mapreduce.ReducedGroup{}
	for part := 0; part < 2; part++ {
		out, err := p.RunReduce(ctx, part, reduceAttempt, commits[part], nil)
		if err != nil {
			t.Fatalf("reduce part %d: %v", part, err)
		}
		if want := part % 2; out.Worker != want {
			t.Errorf("part %d reduced on worker %d, want owner %d", part, out.Worker, want)
		}
		groups[part] = out.Groups
	}
	return groups
}

// checkW2WGroups asserts the reduced groups carry exactly the six
// emitted rows under keys a/b/c, each group sorted and intact.
func checkW2WGroups(t *testing.T, groups map[int][]mapreduce.ReducedGroup) {
	t.Helper()
	rowsByKey := map[string]int{}
	var rows int
	for part, gs := range groups {
		var prev string
		for i, g := range gs {
			if i > 0 && g.Key <= prev {
				t.Errorf("part %d keys out of order: %q after %q", part, g.Key, prev)
			}
			prev = g.Key
			rowsByKey[g.Key] += len(g.Rows)
			rows += len(g.Rows)
		}
	}
	if rows != 6 {
		t.Fatalf("reduced %d rows across partitions, want 6: %v", rows, rowsByKey)
	}
	if rowsByKey["a"] != 3 || rowsByKey["b"] != 2 || rowsByKey["c"] != 1 {
		t.Fatalf("group sizes diverged: %v", rowsByKey)
	}
}

// TestW2WMapReduceRoundTrip: maps push runs to their partition owners,
// the coordinator sees only receipts, and worker-resident reduces
// return the merged groups. Closing the pool broadcasts job-done, so
// both workers drop their shuffle state.
func TestW2WMapReduceRoundTrip(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, w0 := startWorker(t)
	ep1, w1 := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep0, ep1}, WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	checkW2WGroups(t, runW2WJob(t, p, 0, 0))
	if in := p.Stats().ShuffleIngressBytes; in <= 0 {
		t.Errorf("no shuffle-plane ingress recorded (%d bytes)", in)
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for w0.Jobs()+w1.Jobs() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job state leaked after Close: worker0=%d worker1=%d jobs", w0.Jobs(), w1.Jobs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestW2WMatchesViaCoordinator: the worker-resident reduce produces the
// same groups, bytes included, as merging the via-coordinator runs
// locally — the transport-equivalence contract at the unit level.
func TestW2WMatchesViaCoordinator(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, _ := startWorker(t)
	spec := testSpec(t)
	via, err := NewPool(spec, []Endpoint{ep0, ep1})
	if err != nil {
		t.Fatal(err)
	}
	defer via.Close()
	runs := map[int][]mapreduce.Run{}
	for task, seg := range w2wSegments() {
		out, err := via.RunMap(context.Background(), task, 0, seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Runs {
			runs[r.Part] = append(runs[r.Part], r)
		}
	}
	want := map[int][]mapreduce.ReducedGroup{}
	for part, rs := range runs {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Task < rs[j].Task })
		err := mapreduce.MergeEncodedRuns(part, rs, nil, func(key string, group []mapreduce.Shuffled) error {
			g := mapreduce.ReducedGroup{Key: key}
			for _, r := range group {
				g.Rows = append(g.Rows, mapreduce.Shuffled{
					MapperID: r.MapperID, RecordID: r.RecordID,
					Value: append([]byte(nil), r.Value...)})
			}
			want[part] = append(want[part], g)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	w2w, err := NewPool(spec, []Endpoint{ep0, ep1}, WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer w2w.Close()
	got := runW2WJob(t, w2w, 0, 0)
	for part := 0; part < 2; part++ {
		if len(got[part]) != len(want[part]) {
			t.Fatalf("part %d: %d groups via w2w, %d via coordinator", part, len(got[part]), len(want[part]))
		}
		for i, g := range got[part] {
			w := want[part][i]
			if g.Key != w.Key || len(g.Rows) != len(w.Rows) {
				t.Fatalf("part %d group %d diverged: %+v vs %+v", part, i, g, w)
			}
			for j, r := range g.Rows {
				wr := w.Rows[j]
				if r.MapperID != wr.MapperID || r.RecordID != wr.RecordID || !bytes.Equal(r.Value, wr.Value) {
					t.Fatalf("part %d group %q row %d diverged: %+v vs %+v", part, g.Key, j, r, wr)
				}
			}
		}
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

// TestW2WReduceChaosRefillsDroppedState: a reduce owner the plan kills
// as the merge starts (state dropped, connection torn down) fails that
// attempt; the retry finds the runs missing, the coordinator refills
// them from retained segments, and the reduce completes with the right
// groups.
func TestW2WReduceChaosRefillsDroppedState(t *testing.T) {
	checkGoroutineLeaks(t)
	ep0, _ := startWorker(t)
	ep1, _ := startWorker(t)
	// Rate 1 with MaxAttempts 2: reduce attempt 0 is killed, attempt 1
	// (final) is spared by construction.
	plan := mapreduce.NewFaultPlan(5).WithRate(1).WithKinds(mapreduce.KindKill)
	arm := func(part, attempt int) mapreduce.AttemptFaults {
		return plan.Arm(part, attempt, 2, mapreduce.PointReduceMerge)
	}
	p, err := NewPool(testSpec(t), []Endpoint{ep0, ep1}, WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	commits := map[int][]mapreduce.Run{}
	for task, seg := range w2wSegments() {
		// Attempt 1 is each map task's final attempt: spared, so the push
		// succeeds and the pool retains the segment for refills.
		out, err := p.RunMap(ctx, task, 1, seg, nil)
		if err != nil {
			t.Fatalf("map task %d: %v", task, err)
		}
		for _, r := range out.Runs {
			commits[r.Part] = append(commits[r.Part], r)
		}
	}
	groups := map[int][]mapreduce.ReducedGroup{}
	for part := 0; part < 2; part++ {
		if _, err := p.RunReduce(ctx, part, 0, commits[part], arm(part, 0)); err == nil {
			t.Fatalf("part %d: chaos-dropped reduce attempt succeeded", part)
		}
		out, err := p.RunReduce(ctx, part, 1, commits[part], arm(part, 1))
		if err != nil {
			t.Fatalf("part %d retry (with refill) failed: %v", part, err)
		}
		groups[part] = out.Groups
	}
	checkW2WGroups(t, groups)
	if n := plan.InjectedAt(mapreduce.PointReduceMerge, mapreduce.KindKill); n != 2 {
		t.Errorf("%d owner kills armed, want the 2 reduce drops", n)
	}
}

// TestW2WReduceContextCancellation: a cancelled context unblocks
// RunReduce even when the owner never answers.
func TestW2WReduceContextCancellation(t *testing.T) {
	checkGoroutineLeaks(t)
	p, err := NewPool(testSpec(t), []Endpoint{silentWorker(t)}, WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.RunReduce(ctx, 0, 0, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancellation took %v — the reduce read did not unblock", d)
	}
}

// TestW2WReduceRequiresTopology: RunReduce on a via-coordinator pool is
// a configuration error, reported as such.
func TestW2WReduceRequiresTopology(t *testing.T) {
	checkGoroutineLeaks(t)
	ep, _ := startWorker(t)
	p, err := NewPool(testSpec(t), []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.RunReduce(context.Background(), 0, 0, nil, nil); err == nil {
		t.Fatal("RunReduce succeeded without WithW2W")
	}
}

// TestChaosReducePlanDeterminism extends the plan's contract to the
// reduce request: its fault field is pure in (part, attempt), holds only
// the reduce points, is empty on final attempts, follows a schedule of
// its own rather than the map side's, and is empty for a nil plan.
func TestChaosReducePlanDeterminism(t *testing.T) {
	ship := func(plan *mapreduce.FaultPlan, part, attempt int) mapreduce.AttemptFaults {
		q, err := decodeReduce(encodeReduce(&reduceReq{part: part,
			faults: plan.Arm(part, attempt, 4, mapreduce.PointReduceMerge, mapreduce.PointReduceMid)}))
		if err != nil {
			t.Fatalf("reduce (%d, %d): %v", part, attempt, err)
		}
		return q.faults
	}
	plan, again := mapreduce.NewFaultPlan(42).WithRate(0.4), mapreduce.NewFaultPlan(42).WithRate(0.4)
	var injected, diverged int
	for part := 0; part < 50; part++ {
		for attempt := 0; attempt < 6; attempt++ {
			f1, f2 := ship(plan, part, attempt), ship(again, part, attempt)
			if !slices.Equal(f1, f2) {
				t.Fatalf("reduce (%d, %d) not deterministic: %+v vs %+v", part, attempt, f1, f2)
			}
			if attempt >= 3 && len(f1) != 0 {
				t.Fatalf("reduce (%d, %d) carries %+v on a spared attempt", part, attempt, f1)
			}
			for _, f := range f1 {
				if f.Point != mapreduce.PointReduceMerge && f.Point != mapreduce.PointReduceMid {
					t.Fatalf("reduce (%d, %d) carries a %v fault", part, attempt, f.Point)
				}
			}
			injected += len(f1)
			if mapFaulted := len(shipAssign(t, plan, part, attempt, 4)) > 0; mapFaulted != (len(f1) > 0) {
				diverged++
			}
		}
	}
	if injected == 0 {
		t.Error("rate 0.4 plan never faulted a reduce attempt")
	}
	if diverged == 0 {
		t.Error("reduce and map schedules coincide")
	}
	if f := ship(nil, 0, 0); len(f) != 0 {
		t.Errorf("nil plan shipped %+v", f)
	}
}
