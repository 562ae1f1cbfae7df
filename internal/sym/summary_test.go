package sym

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

// funnelEvent and funnelState mirror the paper's Figure 1 UDA: report
// items a user purchased after searching and reading more than 10
// reviews.
type funnelEvent struct {
	kind int // 0 search, 1 review, 2 purchase, 3 other
	item string
}

type funnelState struct {
	SrchFound SymBool
	Count     SymInt
	Ret       SymVector[string]
}

func (s *funnelState) Fields() []Value {
	return []Value{&s.SrchFound, &s.Count, &s.Ret}
}

func newFunnelState() *funnelState {
	return &funnelState{
		SrchFound: NewSymBool(false),
		Count:     NewSymInt(0),
		Ret:       NewSymVector(StringCodec()),
	}
}

func funnelUpdate(ctx *Ctx, s *funnelState, e funnelEvent) {
	if s.SrchFound.IsFalse(ctx) && e.kind == 0 {
		s.SrchFound.Set(true)
		s.Count.Set(0)
	}
	if s.SrchFound.IsTrue(ctx) && e.kind == 1 {
		s.Count.Inc()
	}
	if s.SrchFound.IsTrue(ctx) && e.kind == 2 {
		if s.Count.Gt(ctx, 10) {
			s.Ret.Push(e.item)
		}
		s.SrchFound.Set(false)
	}
}

// funnelConcrete is the independent oracle, written with plain Go types.
func funnelConcrete(events []funnelEvent) []string {
	srch := false
	count := int64(0)
	var ret []string
	for _, e := range events {
		if !srch && e.kind == 0 {
			srch = true
			count = 0
		}
		if srch && e.kind == 1 {
			count++
		}
		if srch && e.kind == 2 {
			if count > 10 {
				ret = append(ret, e.item)
			}
			srch = false
		}
	}
	return ret
}

func randFunnelEvents(r *rand.Rand, n int) []funnelEvent {
	items := []string{"tv", "book", "phone"}
	evs := make([]funnelEvent, n)
	for i := range evs {
		evs[i] = funnelEvent{kind: r.Intn(4), item: items[r.Intn(len(items))]}
	}
	return evs
}

// chunkSummaries runs the UDA symbolically over each chunk and returns
// the concatenated summaries in order.
func chunkSummaries(t *testing.T, events []funnelEvent, bounds []int) []*Summary[*funnelState] {
	t.Helper()
	var sums []*Summary[*funnelState]
	start := 0
	for _, end := range append(bounds, len(events)) {
		if end < start || end > len(events) {
			t.Fatalf("bad chunk bound %d", end)
		}
		x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
		for _, e := range events[start:end] {
			if err := x.Feed(e); err != nil {
				t.Fatalf("feed: %v", err)
			}
		}
		s, err := x.Finish()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		sums = append(sums, s...)
		start = end
	}
	return sums
}

func checkFunnelResult(t *testing.T, got *funnelState, want []string, label string) {
	t.Helper()
	g := got.Ret.Elems()
	if len(g) != len(want) {
		t.Fatalf("%s: got %v, want %v", label, g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", label, g, want)
		}
	}
}

// TestFunnelChunkedEqualsSequential is the headline soundness property:
// symbolic execution over arbitrary chunkings composes to exactly the
// sequential output of the Figure 1 UDA.
func TestFunnelChunkedEqualsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(60)
		events := randFunnelEvents(r, n)
		want := funnelConcrete(events)

		// Random chunk boundaries.
		var bounds []int
		for i := 1; i < n; i++ {
			if r.Intn(4) == 0 {
				bounds = append(bounds, i)
			}
		}
		sums := chunkSummaries(t, events, bounds)

		// Reducer-side: apply summaries in order to the initial state.
		got, err := ApplyAll(newFunnelState(), sums)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFunnelResult(t, got, want, "ApplyAll")

		// Tree-side: pre-compose all summaries, then apply once.
		composed, err := ComposeAll(sums)
		if err != nil {
			t.Fatalf("trial %d: compose: %v", trial, err)
		}
		got2, err := composed.ApplyStrict(newFunnelState())
		if err != nil {
			t.Fatalf("trial %d: apply composed: %v", trial, err)
		}
		checkFunnelResult(t, got2, want, "ComposeAll")
	}
}

// TestFunnelSummaryWireRoundTrip pushes every chunk summary through the
// wire format before composing, as the real shuffle does.
func TestFunnelSummaryWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	events := randFunnelEvents(r, 80)
	want := funnelConcrete(events)
	sums := chunkSummaries(t, events, []int{20, 40, 60})

	var decoded []*Summary[*funnelState]
	for _, s := range sums {
		e := wire.NewEncoder(0)
		s.Encode(e)
		d, err := DecodeSummary(newFunnelState, wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d.NumPaths() != s.NumPaths() {
			t.Fatalf("paths %d != %d after round trip", d.NumPaths(), s.NumPaths())
		}
		decoded = append(decoded, d)
	}
	got, err := ApplyAll(newFunnelState(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	checkFunnelResult(t, got, want, "decoded")
}

// TestComposeAssociativity verifies (S3∘S2)∘S1 ≡ S3∘(S2∘S1) by applying
// both to many concrete states — the property that enables parallel
// summary reduction (paper §3.6).
func TestComposeAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	events := randFunnelEvents(r, 45)
	sums := chunkSummaries(t, events, []int{15, 30})
	if len(sums) != 3 {
		t.Fatalf("expected 3 summaries, got %d", len(sums))
	}
	s12, err := sums[0].ComposeWith(sums[1])
	if err != nil {
		t.Fatal(err)
	}
	left, err := s12.ComposeWith(sums[2])
	if err != nil {
		t.Fatal(err)
	}
	s23, err := sums[1].ComposeWith(sums[2])
	if err != nil {
		t.Fatal(err)
	}
	right, err := sums[0].ComposeWith(s23)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		init := newFunnelState()
		init.SrchFound.Set(r.Intn(2) == 0)
		init.Count.Set(int64(r.Intn(30) - 5))
		a, err := left.ApplyStrict(init)
		if err != nil {
			t.Fatal(err)
		}
		b, err := right.ApplyStrict(init)
		if err != nil {
			t.Fatal(err)
		}
		if a.SrchFound.Get() != b.SrchFound.Get() || a.Count.Get() != b.Count.Get() {
			t.Fatalf("scalar outputs differ: %v vs %v", a, b)
		}
		ae, be := a.Ret.Elems(), b.Ret.Elems()
		if len(ae) != len(be) {
			t.Fatalf("vector outputs differ: %v vs %v", ae, be)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("vector outputs differ: %v vs %v", ae, be)
			}
		}
	}
}

// TestPaperSection36Composition reproduces the paper's §3.6 worked
// example: composing the summaries of Max chunks [5,3,10] and [8,2,1]
// yields x<10 ⇒ 10 ∧ x≥10 ⇒ x, and applying to 9 gives 10.
func TestPaperSection36Composition(t *testing.T) {
	mkSummary := func(chunk []int64) *Summary[*intState] {
		x := NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
		for _, e := range chunk {
			if err := x.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil || len(sums) != 1 {
			t.Fatalf("finish: %v (%d summaries)", err, len(sums))
		}
		return sums[0]
	}
	s2 := mkSummary([]int64{5, 3, 10})
	s3 := mkSummary([]int64{8, 2, 1})
	s32, err := s2.ComposeWith(s3)
	if err != nil {
		t.Fatal(err)
	}
	if s32.NumPaths() != 2 {
		t.Fatalf("composed summary has %d paths, want 2:\n%s", s32.NumPaths(), s32)
	}
	got, err := s32.ApplyStrict(&intState{V: NewSymInt(9)})
	if err != nil {
		t.Fatal(err)
	}
	if g := got.V.Get(); g != 10 {
		t.Fatalf("S3∘S2(9) = %d, want 10", g)
	}
	got2, err := s32.ApplyStrict(&intState{V: NewSymInt(99)})
	if err != nil {
		t.Fatal(err)
	}
	if g := got2.V.Get(); g != 99 {
		t.Fatalf("S3∘S2(99) = %d, want 99", g)
	}
}

// TestSummaryPartitionProperty uses testing/quick: for random summaries
// of the funnel UDA and random concrete initial states, exactly one path
// admits the state (validity: PCs are disjoint and cover the space).
func TestSummaryPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	events := randFunnelEvents(r, 25)
	sums := chunkSummaries(t, events, nil)
	s := sums[0]
	f := func(srch bool, count int16) bool {
		c := newFunnelState()
		c.SrchFound.Set(srch)
		c.Count.Set(int64(count))
		n := 0
		for _, p := range s.Paths() {
			if admitsFields(p.Fields(), c.Fields()) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryCompactness checks the serialized size of a long chunk's
// summary stays tiny — the property behind the paper's shuffle savings.
func TestSummaryCompactness(t *testing.T) {
	x := NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
	for e := int64(0); e < 100000; e++ {
		if err := x.Feed(e % 1000); err != nil {
			t.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n := sums[0].EncodedSize(); n > 64 {
		t.Fatalf("summary of 100k records serialized to %d bytes, want ≤ 64", n)
	}
}

func TestApplyNoPathError(t *testing.T) {
	// A hand-built invalid summary (empty) must report ErrNoPath.
	s := NewSummary(newIntState(0), nil)
	if _, err := s.Apply(&intState{V: NewSymInt(0)}); err == nil {
		t.Fatal("expected ErrNoPath")
	}
}

func TestDecodeSummaryCorrupt(t *testing.T) {
	e := wire.NewEncoder(0)
	e.Uvarint(5) // claims 5 paths, provides none
	if _, err := DecodeSummary(newIntState(0), wire.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected decode error")
	}
}

// NewSummary builds a summary from explored paths; executors produce
// summaries via Finish.
func NewSummary[S State](newState func() S, paths []S) *Summary[S] {
	ps := make([]*pathState[S], len(paths))
	for i, p := range paths {
		ps[i] = wrapState(p)
	}
	return &Summary[S]{ps: ps, newState: newState}
}

// ApplyStrict is Apply plus a validity check: it errors if the number of
// admitting paths differs from one (the partition property is violated).
// Apply takes the first admitting path.
func (s *Summary[S]) ApplyStrict(c S) (out S, err error) {
	defer catchFailure(&err)
	cf := c.Fields()
	n := 0
	for _, p := range s.ps {
		if admitsFields(p.fs, cf) {
			n++
		}
	}
	if n != 1 {
		return out, fmt.Errorf("%w: %d of %d paths admit the state", ErrNoPath, n, len(s.ps))
	}
	return s.Apply(c)
}

// EncodedSize returns the wire size of the summary in bytes.
func (s *Summary[S]) EncodedSize() int {
	e := wire.GetEncoder()
	s.Encode(e)
	n := e.Len()
	wire.PutEncoder(e)
	return n
}
