package sym

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/wire"
)

func TestSchemaCompilesFieldPlan(t *testing.T) {
	sc, err := NewSchema(newPredState)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumFields() != 3 {
		t.Fatalf("NumFields = %d, want 3", sc.NumFields())
	}
	// The plan must classify fields once: SymInt is a scalar input with a
	// scalar transfer; SymPred (black-box predicate) and SymIntVector are
	// neither.
	wantIn := []bool{false, true, false}
	wantTr := []bool{false, true, false}
	for i := 0; i < sc.NumFields(); i++ {
		if sc.scalarIn[i] != wantIn[i] || sc.scalarTr[i] != wantTr[i] {
			t.Fatalf("field %d: scalarIn=%v scalarTr=%v, want %v/%v",
				i, sc.scalarIn[i], sc.scalarTr[i], wantIn[i], wantTr[i])
		}
	}
}

func TestContainersRoundTrip(t *testing.T) {
	sc := newSchema(newIntState(5))
	c := containers[*intState]{sc: sc}
	p := c.get()
	if len(p.fs) != 1 {
		t.Fatalf("container has %d fields, want 1", len(p.fs))
	}
	p.s.V.Set(42)
	cl := c.cloneOf(p)
	if cl.s.V.Get() != 42 {
		t.Fatalf("clone value %d, want 42", cl.s.V.Get())
	}
	cl.s.V.Set(7)
	if p.s.V.Get() != 42 {
		t.Fatal("clone aliases its source")
	}
	f := c.fresh()
	if allConcreteFields(f.fs) {
		t.Fatal("fresh container not reset to symbolic")
	}
	c.put(p)
	c.putAll([]*pathState[*intState]{cl, f})
	// A stack holding three containers hands those out before the schema
	// builds a fourth.
	for i := 0; i < 3; i++ {
		c.get()
	}
	if got := sc.Allocated(); got != 3 {
		t.Fatalf("schema built %d containers, want 3", got)
	}
	c.get()
	if got := sc.Allocated(); got != 4 {
		t.Fatalf("empty stack: schema built %d containers, want 4", got)
	}
}

// TestExecSiteBoundedAcrossRuns: a Reset-loop executor — the mapper's
// idiom: Reset, feed, AppendBundle — keeps every container it needs on
// its own stack, so after the first run the schema builds none, however
// many runs follow. (Finish is the snapshot API and does build: its
// summaries are the caller's.)
func TestExecSiteBoundedAcrossRuns(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions())
	var enc wire.Encoder
	run := func() {
		x.Reset()
		for i := 0; i < 300; i++ {
			if err := x.Feed(int64(i % 37)); err != nil {
				t.Fatal(err)
			}
		}
		enc.Reset()
		if _, err := x.AppendBundle(&enc); err != nil {
			t.Fatal(err)
		}
	}
	run()
	after := sc.Allocated()
	for i := 0; i < 100; i++ {
		run()
	}
	if grew := sc.Allocated() - after; grew != 0 {
		t.Fatalf("site not reusing: %d containers after the first run, %d more after 100 runs", after, grew)
	}
	if _, err := x.Finish(); err != nil {
		t.Fatal(err)
	}
	if sc.Allocated() == after {
		t.Fatal("Finish built no container: a snapshot must not share the executor's")
	}
}

// TestStreamComposerBoundedLiveMemory is the regression test for the
// composer dropping composed-out summaries: folding a long out-of-order
// stream of chunks must keep live memory bounded by the out-of-order
// window — each chunk's summaries become garbage as they fold, instead
// of accumulating in the composer.
func TestStreamComposerBoundedLiveMemory(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions())
	chunkSummaries := func(lo int64) []*Summary[*intState] {
		x.Reset()
		for i := int64(0); i < 20; i++ {
			if err := x.Feed(lo + i%13); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}
	c := NewStreamComposer(newIntState(math.MinInt64))
	liveObjects := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	const chunks = 4000
	var mid uint64
	// Deliver each adjacent pair out of order (1,0),(3,2),...: the
	// composer always holds at most one pending chunk while the folded
	// prefix keeps advancing.
	for i := 0; i < chunks; i += 2 {
		if i == chunks/2 {
			mid = liveObjects()
		}
		if _, err := c.Add(i+1, chunkSummaries(int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Add(i, chunkSummaries(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	state, folded := c.Prefix()
	if folded != chunks {
		t.Fatalf("folded %d/%d chunks", folded, chunks)
	}
	if want := int64(chunks - 1 + 12); state.V.Get() != want {
		t.Fatalf("prefix max = %d, want %d", state.V.Get(), want)
	}
	// The bound: live objects stay O(paths per chunk), not O(chunks).
	// The second 2000 chunks build ≥ 2 containers each — over 10 000
	// objects with their states and field slices — all of which would
	// still be live if folded summaries stayed reachable.
	if end := liveObjects(); end > mid+1000 {
		t.Fatalf("live heap objects grew %d → %d across %d folded chunks — composer retains summaries", mid, end, chunks/2)
	}
}
