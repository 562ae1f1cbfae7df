package sym

import (
	"math"
	"testing"
)

func TestMemoIncomparableKeyDisabled(t *testing.T) {
	sc := newSchema(newIntState(0))
	// Slice events cannot key a map: NewMemo must opt out, not panic.
	if m := NewMemo[*intState, []int64](sc, 8); m != nil {
		t.Fatal("memo over incomparable event type should be nil")
	}
	// A nil memo on the executor is a no-op, not an error.
	x := NewSchemaExecutor(sc, func(ctx *Ctx, s *intState, e []int64) {
		for _, v := range e {
			if s.V.Lt(ctx, v) {
				s.V.Set(v)
			}
		}
	}, DefaultOptions()).WithMemo(nil)
	if err := x.Feed([]int64{3, 9, 2}); err != nil {
		t.Fatal(err)
	}
	if st := x.Stats(); st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Fatalf("nil memo counted traffic: %+v", st)
	}
}

func TestMemoHitMissCounters(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	m := NewMemo[*intState, int64](sc, 64)
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions()).WithMemo(m)
	stream := []int64{5, 3, 10, 5, 3, 10, 5, 3, 10}
	for _, e := range stream {
		if err := x.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	st := x.Stats()
	// Three distinct events: first sight misses, repeats hit.
	if st.MemoMisses != 3 {
		t.Fatalf("misses = %d, want 3", st.MemoMisses)
	}
	if st.MemoHits != len(stream)-3 {
		t.Fatalf("hits = %d, want %d", st.MemoHits, len(stream)-3)
	}
	if m.Len() != 3 {
		t.Fatalf("len = %d, want 3", m.Len())
	}
}

func TestMemoFIFOEviction(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	m := NewMemo[*intState, int64](sc, 2)
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions()).WithMemo(m)
	// Cycle through 3 distinct events with cap 2: every insert past the
	// second evicts the oldest, and the memo never exceeds its cap.
	for i := 0; i < 30; i++ {
		if err := x.Feed(int64(i % 3)); err != nil {
			t.Fatal(err)
		}
		if m.Len() > 2 {
			t.Fatalf("len %d exceeds cap 2", m.Len())
		}
	}
	if m.Evicts() == 0 {
		t.Fatal("no evictions despite cap pressure")
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Max over {0,1,2} from MinInt64 is 2 regardless of memo churn.
	got, err := sums[len(sums)-1].ApplyStrict(&intState{V: NewSymInt(math.MinInt64)})
	if err != nil {
		t.Fatal(err)
	}
	if got.V.Get() != 2 {
		t.Fatalf("result %d, want 2", got.V.Get())
	}
	m.Release()
	if m.Len() != 0 {
		t.Fatal("release left entries behind")
	}
}

// TestMemoAdaptiveDisable: a stream of (nearly) unique events keeps the
// hit rate at zero; past the warmup the memo must shut itself off and
// free its cache, and the executor must keep producing correct results
// by direct exploration.
func TestMemoAdaptiveDisable(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	m := NewMemo[*intState, int64](sc, DefaultMemoSize)
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions()).WithMemo(m)
	n := memoWarmup * 4
	for i := 0; i < n; i++ {
		if err := x.Feed(int64(i)); err != nil { // all distinct: 0% hits
			t.Fatal(err)
		}
	}
	if m.active() {
		t.Fatalf("memo still active after %d lookups with zero hits", n)
	}
	if m.Len() != 0 {
		t.Fatalf("disabled memo retains %d entries", m.Len())
	}
	st := x.Stats()
	// Once disabled the executor stops consulting the memo entirely, so
	// lookups stop well short of the record count.
	if st.MemoHits+st.MemoMisses >= n {
		t.Fatalf("memo consulted %d times after cutoff (records %d)",
			st.MemoHits+st.MemoMisses, n)
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sums[len(sums)-1].ApplyStrict(&intState{V: NewSymInt(math.MinInt64)})
	if err != nil {
		t.Fatal(err)
	}
	if got.V.Get() != int64(n-1) {
		t.Fatalf("result %d, want %d", got.V.Get(), n-1)
	}
}

// negState keeps one field (B) symbolic forever so the executor never
// upgrades to the memo-free fastConcrete mode, while the UDA reads the
// other field (A) concretely — readable on the live path once event 0
// concretizes it, unreadable during a transition build from the fully
// symbolic state.
type negState struct {
	A SymInt
	B SymInt
}

func (s *negState) Fields() []Value { return []Value{&s.A, &s.B} }

func newNegState() *negState {
	return &negState{A: NewSymInt(0), B: NewSymInt(5)}
}

// TestMemoNegativeEntry: a UDA that reads a field concretely (Get)
// cannot have its transition built from the fully symbolic state — the
// read fails during the build. The memo must record a negative entry
// once and the executor must keep answering by direct exploration on
// the live paths.
func TestMemoNegativeEntry(t *testing.T) {
	update := func(ctx *Ctx, s *negState, e int64) {
		if e == 0 {
			s.A.Set(0) // concretizes A; buildable symbolically
		} else {
			s.A.Set(s.A.Get() + e) // concrete read; not buildable symbolically
		}
	}
	sc := newSchema(newNegState)
	m := NewMemo[*negState, int64](sc, 16)
	x := NewSchemaExecutor(sc, update, DefaultOptions()).WithMemo(m)
	if err := x.Feed(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := x.Feed(7); err != nil {
			t.Fatal(err)
		}
	}
	// Two entries: a positive one for event 0, a negative one for 7.
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if tr, ok := m.get(int64(7)); !ok || tr != nil {
		t.Fatalf("entry for event 7: tr=%v ok=%v, want negative (nil, true)", tr, ok)
	}
	// Repeats of event 7 hit the cached negative entry (keeping the
	// memo's internal hit rate honest) but count as executor misses —
	// they still cost a direct exploration.
	if m.hits == 0 {
		t.Fatal("negative entry not hit on repeats")
	}
	if st := x.Stats(); st.MemoHits != 0 {
		t.Fatalf("executor counted %d hits; negative entries must count as misses", st.MemoHits)
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sums[len(sums)-1].ApplyStrict(newNegState())
	if err != nil {
		t.Fatal(err)
	}
	if got.A.Get() != 63 {
		t.Fatalf("A = %d, want 63", got.A.Get())
	}
}

// TestMemoEvictionRetiresToSite: a memo under eviction pressure hands
// each evicted transition's containers back to the executor it is
// attached to, so a stream that churns a tiny cache builds far fewer
// containers than it evicts.
func TestMemoEvictionRetiresToSite(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	m := NewMemo[*intState, int64](sc, 4)
	x := NewSchemaExecutor(sc, maxUpdate, DefaultOptions()).WithMemo(m)
	for i := 0; i < 500; i++ {
		// Three hot events keep hits coming; every fourth is one of
		// sixteen rotating cold ones, each evicting an entry.
		ev := int64(i % 3)
		if i%4 == 3 {
			ev = 100 + int64(i/4%16)
		}
		if err := x.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if m.Evicts() < 20 {
		t.Fatalf("%d evictions: the stream does not pressure the cache", m.Evicts())
	}
	// Every cached transition here has two paths: without reuse the
	// evictions alone would have cost twice their number in containers.
	if got := sc.Allocated(); got >= m.Evicts() {
		t.Fatalf("schema built %d containers across %d evictions — evicted transitions are not reused", got, m.Evicts())
	}
}
