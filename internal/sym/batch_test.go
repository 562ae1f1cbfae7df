package sym

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// FeedBatch must be observationally identical to a Feed loop: same
// summaries byte for byte, same record accounting, on every stream and
// for every placement of the batch boundaries. These tests drive the
// batch API across the three execution regimes it specializes — runs of
// identical events (each run folded as a unit), fork-free windows
// (checkpoint + in-place update), and the scalar fallback when a record
// forks mid-window — against the scalar loop as the oracle.

// runFastBatch drives the schema engine through FeedBatch, cutting the
// stream at the given boundaries (each entry is an absolute index; the
// final slice runs to the end).
func runFastBatch[S State, E any](tb testing.TB, newState func() S, update func(*Ctx, S, E), opts Options, stream []E, cuts []int) ([]byte, Stats) {
	tb.Helper()
	x := NewSchemaExecutor(newSchema(newState), update, opts)
	lo := 0
	for _, hi := range append(append([]int{}, cuts...), len(stream)) {
		if err := x.FeedBatch(stream[lo:hi]); err != nil {
			tb.Fatalf("batch feed [%d:%d): %v", lo, hi, err)
		}
		lo = hi
	}
	sums, err := x.Finish()
	if err != nil {
		tb.Fatalf("batch finish: %v", err)
	}
	return encodeSummaries(tb, sums), x.Stats()
}

// checkBatchEquiv compares FeedBatch, cut at the given boundaries,
// against the scalar Feed loop.
func checkBatchEquiv[S State, E any](tb testing.TB, label string, newState func() S, update func(*Ctx, S, E), opts Options, stream []E, cuts []int) {
	tb.Helper()
	want, wstats := runFast(tb, newState, update, opts, stream)
	got, gstats := runFastBatch(tb, newState, update, opts, stream, cuts)
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s cuts=%v: batch summaries diverge from scalar loop (%d vs %d bytes)",
			label, cuts, len(got), len(want))
	}
	if gstats.Records != wstats.Records || gstats.Restarts != wstats.Restarts {
		tb.Fatalf("%s cuts=%v: stats diverge: records %d/%d restarts %d/%d",
			label, cuts, gstats.Records, wstats.Records, gstats.Restarts, wstats.Restarts)
	}
}

// runStream builds a stream dominated by runs of identical values, the
// shape the run-length probe exists for.
func runStream(r *rand.Rand, n, alphabet, maxRun int) []int64 {
	var s []int64
	for len(s) < n {
		v := int64(r.Intn(alphabet))
		for k := 1 + r.Intn(maxRun); k > 0 && len(s) < n; k-- {
			s = append(s, v)
		}
	}
	return s
}

// addUpdate is an always-symbolic fork-free UDA (a running sum): a
// single live path whose transitions compose by powering over runs.
func addUpdate(ctx *Ctx, s *intState, e int64) {
	s.V.Add(e)
}

// gateUpdate leaves the state untouched for zero events — an identity
// transition, the G1 push-run shape — and collapses it otherwise.
func gateUpdate(ctx *Ctx, s *intState, e int64) {
	if e != 0 {
		s.V.Set(1)
	}
}

func TestBatchEquivalenceMax(t *testing.T) {
	// Max forks on the first record, merges to two paths (§3.5), and
	// keeps deciding Lt per record — mid-window forks interleave with
	// quiet stretches, exercising checkpoint rollback and replay.
	r := rand.New(rand.NewSource(21))
	stream := runStream(r, 500, 12, 9)
	checkBatchEquiv(t, "max", newIntState(math.MinInt64), maxUpdate, DefaultOptions(), stream, nil)
	checkBatchEquiv(t, "max", newIntState(math.MinInt64), maxUpdate, DefaultOptions(), stream, []int{1, 7, 250, 499})
}

func TestBatchEquivalenceSum(t *testing.T) {
	// A running sum never forks: long runs fold through transition
	// powering, the stretches in between through fork-free windows.
	r := rand.New(rand.NewSource(22))
	stream := runStream(r, 500, 6, 20)
	checkBatchEquiv(t, "sum", newIntState(0), addUpdate, DefaultOptions(), stream, nil)
}

func TestBatchEquivalenceIdentityRuns(t *testing.T) {
	// Streams dominated by identity transitions (zero events): the run
	// probe must detect and skip them without touching the paths.
	r := rand.New(rand.NewSource(23))
	stream := make([]int64, 400)
	for i := range stream {
		if r.Intn(10) == 0 {
			stream[i] = int64(1 + r.Intn(3))
		}
	}
	checkBatchEquiv(t, "gate", newIntState(0), gateUpdate, DefaultOptions(), stream, nil)

	x := NewSchemaExecutor(newSchema(newIntState(0)), gateUpdate, DefaultOptions())
	if err := x.FeedBatch(make([]int64, 256)); err != nil {
		t.Fatal(err)
	}
	st := x.Stats()
	if st.RunProbes == 0 {
		t.Error("a 256-record identity run produced no run probes")
	}
	if st.Records != 256 {
		t.Errorf("records %d, want 256", st.Records)
	}
}

func TestBatchEquivalenceRandomSplits(t *testing.T) {
	// Metamorphic: any placement of the batch boundaries reproduces the
	// scalar summaries. Random UDAs from the seed-equivalence generator
	// family, random streams, random cuts.
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		stream := runStream(r, 200+r.Intn(200), 2+r.Intn(10), 1+r.Intn(12))
		var cuts []int
		for k := r.Intn(4); k > 0; k-- {
			cuts = append(cuts, r.Intn(len(stream)))
		}
		// Cuts must be non-decreasing absolute indices.
		for i := 1; i < len(cuts); i++ {
			if cuts[i] < cuts[i-1] {
				cuts[i] = cuts[i-1]
			}
		}
		switch trial % 3 {
		case 0:
			checkBatchEquiv(t, "splits/max", newIntState(math.MinInt64), maxUpdate, DefaultOptions(), stream, cuts)
		case 1:
			checkBatchEquiv(t, "splits/sum", newIntState(0), addUpdate, DefaultOptions(), stream, cuts)
		case 2:
			checkBatchEquiv(t, "splits/gate", newIntState(0), gateUpdate, DefaultOptions(), stream, cuts)
		}
	}
}

func TestBatchEquivalencePathCapRestarts(t *testing.T) {
	// Tight path cap with merging off: restarts must land on the same
	// records under batch and scalar execution (settle() is shared, so
	// this pins the accounting the restart decision reads).
	opts := Options{MaxLivePaths: 4, MaxRunsPerRecord: 256, DisableMerging: true}
	r := rand.New(rand.NewSource(25))
	stream := runStream(r, 300, 8, 6)
	checkBatchEquiv(t, "restarts", newIntState(math.MinInt64), maxUpdate, opts, stream, []int{100, 200})
}

// negState keeps one field (B) symbolic forever, so the executor never
// enters its concrete fast mode, while the UDA below reads the other
// field (A) concretely: readable on the live path once event 0
// concretizes it, unreadable while a run's transition is built from the
// fully symbolic state.
type negState struct {
	A SymInt
	B SymInt
}

func (s *negState) Fields() []Value { return []Value{&s.A, &s.B} }

func newNegState() *negState { return &negState{A: NewSymInt(0), B: NewSymInt(5)} }

// TestBatchRunUnbuildableTransition: a run whose transition cannot be
// built from the fully symbolic state still costs one probe, then falls
// back to the scalar feed, which explores the live path.
func TestBatchRunUnbuildableTransition(t *testing.T) {
	update := func(ctx *Ctx, s *negState, e int64) {
		if e == 0 {
			s.A.Set(0) // concretizes A; buildable symbolically
		} else {
			s.A.Set(s.A.Get() + e) // concrete read; not buildable symbolically
		}
	}
	stream := []int64{0, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	checkBatchEquiv(t, "unbuildable", newNegState, update, DefaultOptions(), stream, nil)

	x := NewSchemaExecutor(newSchema(newNegState), update, DefaultOptions())
	if err := x.FeedBatch(stream); err != nil {
		t.Fatal(err)
	}
	if st := x.Stats(); st.RunProbes != 1 {
		t.Errorf("%d run probes, want 1 for the run of 7s", st.RunProbes)
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

func TestFeedBatchEmptyAndErrorStickiness(t *testing.T) {
	x := NewSchemaExecutor(newSchema(newIntState(0)), addUpdate, DefaultOptions())
	if err := x.FeedBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if st := x.Stats(); st.Records != 0 {
		t.Fatalf("empty batch counted %d records", st.Records)
	}
}

// BenchmarkBatchExec measures the fork-free window path on a
// never-forking UDA over a mixed stream — the per-record cost the
// columnar experiment's exec pass is made of.
func BenchmarkBatchExec(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	stream := runStream(r, 4096, 16, 8)
	sc := newSchema(newIntState(0))
	x := NewSchemaExecutor(sc, addUpdate, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.FeedBatch(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProbe measures folding one long run as a unit by
// powering its transition, amortized per record.
func BenchmarkRunProbe(b *testing.B) {
	stream := make([]int64, 4096)
	for i := range stream {
		stream[i] = 3
	}
	x := NewSchemaExecutor(newSchema(newIntState(0)), addUpdate, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.FeedBatch(stream); err != nil {
			b.Fatal(err)
		}
	}
	if x.Stats().RunProbes == 0 {
		b.Fatal("no run probes — benchmark is not measuring the run path")
	}
}

// BenchmarkBatchKeyedGroups measures the per-group fixed cost of the
// batch path — Reset, FeedBatch over a short identity run, AppendBundle —
// the regime high-cardinality queries (G1-shaped groups of two or three
// identical no-op events) spend their execution pass in. One op is
// keyedGroupBlock groups, so per-group cost is ns/op divided by it.
func BenchmarkBatchKeyedGroups(b *testing.B) {
	const keyedGroupBlock = 512
	x := NewSchemaExecutor(newSchema(newIntState(0)), gateUpdate, DefaultOptions())
	evs := []int64{0, 0, 0}
	var enc wire.Encoder
	first := true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < keyedGroupBlock; g++ {
			if !first {
				x.Reset()
			}
			first = false
			if err := x.FeedBatch(evs); err != nil {
				b.Fatal(err)
			}
			enc.Reset()
			if _, err := x.AppendBundle(&enc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/keyedGroupBlock, "ns/group")
	if x.Stats().RunProbes == 0 {
		b.Fatal("no run probes — groups are not taking the identity skip")
	}
}
