package sym

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// The frozen SeedExecutor is the equivalence oracle for the compiled
// schema engine: on any record stream the two must produce
// byte-identical summaries and identical restart behaviour. These
// property tests drive both engines over randomized streams — including
// path-cap restarts and SymPred windowed dependence.

// encodeSummaries serializes a Finish result for byte comparison.
func encodeSummaries[S State](tb testing.TB, sums []*Summary[S]) []byte {
	tb.Helper()
	e := wire.NewEncoder(256)
	e.Uvarint(uint64(len(sums)))
	for _, s := range sums {
		s.Encode(e)
	}
	buf := make([]byte, e.Len())
	copy(buf, e.Bytes())
	return buf
}

// runSeed drives the frozen seed engine over a stream.
func runSeed[S State, E any](tb testing.TB, newState func() S, update func(*Ctx, S, E), opts Options, stream []E) ([]byte, Stats) {
	tb.Helper()
	x := NewSeedExecutor(newState, update, opts)
	for i, e := range stream {
		if err := x.Feed(e); err != nil {
			tb.Fatalf("seed feed %d: %v", i, err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		tb.Fatalf("seed finish: %v", err)
	}
	return encodeSummaries(tb, sums), x.Stats()
}

// runFast drives the schema-compiled engine, record by record, over the
// same stream.
func runFast[S State, E any](tb testing.TB, newState func() S, update func(*Ctx, S, E), opts Options, stream []E) ([]byte, Stats) {
	tb.Helper()
	x := NewSchemaExecutor(newSchema(newState), update, opts)
	for i, e := range stream {
		if err := x.Feed(e); err != nil {
			tb.Fatalf("fast feed %d: %v", i, err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		tb.Fatalf("fast finish: %v", err)
	}
	return encodeSummaries(tb, sums), x.Stats()
}

// checkEquiv runs the oracle and the fast engine — record by record and
// through FeedBatch, whose run folding composes transitions — and
// requires byte-identical summaries plus matching record/restart
// accounting.
func checkEquiv[S State, E any](tb testing.TB, label string, newState func() S, update func(*Ctx, S, E), opts Options, stream []E) {
	tb.Helper()
	want, wstats := runSeed(tb, newState, update, opts, stream)
	check := func(form string, got []byte, gstats Stats) {
		tb.Helper()
		if !bytes.Equal(got, want) {
			tb.Fatalf("%s %s: summaries diverge from seed engine (%d vs %d bytes)",
				label, form, len(got), len(want))
		}
		if gstats.Records != wstats.Records || gstats.Restarts != wstats.Restarts {
			tb.Fatalf("%s %s: stats diverge: records %d/%d restarts %d/%d",
				label, form, gstats.Records, wstats.Records, gstats.Restarts, wstats.Restarts)
		}
	}
	got, gstats := runFast(tb, newState, update, opts, stream)
	check("Feed", got, gstats)
	got, gstats = runFastBatch(tb, newState, update, opts, stream, nil)
	check("FeedBatch", got, gstats)
}

func TestSeedEquivalenceMaxStream(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	stream := make([]int64, 600)
	for i := range stream {
		stream[i] = int64(r.Intn(40)) // small alphabet: events repeat
	}
	checkEquiv(t, "max", newIntState(math.MinInt64), maxUpdate, DefaultOptions(), stream)
}

// TestSeedEquivalenceRandomPrograms drives both engines with UDAs that
// pick a random straight-line SymInt program per event, over streams
// drawn from a small event alphabet (so FeedBatch folds real runs) and
// with a tiny path cap (so restarts interleave with run composition).
func TestSeedEquivalenceRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nprogs := 1 + r.Intn(4)
		progs := make([][]intOp, nprogs)
		for i := range progs {
			progs[i] = randOps(r, 1+r.Intn(4))
			// Drop multiplications: over hundreds of records they
			// compound the transfer coefficient past the overflow guard
			// (legitimately, in both engines); this test is about
			// compose equivalence, not overflow.
			for j := range progs[i] {
				if progs[i][j].kind == 1 {
					progs[i][j].kind = 0
				}
			}
		}
		update := func(ctx *Ctx, s *intState, e int64) {
			runSymProgram(ctx, s, progs[int(e)%nprogs])
		}
		stream := make([]int64, 120+r.Intn(200))
		for i := range stream {
			stream[i] = int64(r.Intn(nprogs))
		}
		for _, opts := range []Options{
			{MaxLivePaths: 64, MaxRunsPerRecord: 1 << 16},
			{MaxLivePaths: 3, MaxRunsPerRecord: 1 << 16}, // force restarts
		} {
			checkEquiv(t, "randprog", newIntState(int64(trial)), update, opts, stream)
		}
	}
}

// TestSeedEquivalenceSessionPred covers SymPred windowed dependence
// (§4.4): black-box predicates fork blindly from the symbolic state, so
// run transitions carry both branches and composition must prune
// exactly like direct exploration.
func TestSeedEquivalenceSessionPred(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		stream := make([]int64, 80+r.Intn(150))
		for i := range stream {
			// Clustered values: sessions of nearby timestamps with jumps.
			base := int64(r.Intn(5)) * 100
			stream[i] = base + int64(r.Intn(12))
		}
		for _, opts := range []Options{
			DefaultOptions(),
			{MaxLivePaths: 2, MaxRunsPerRecord: 256}, // restart on every widening
		} {
			checkEquiv(t, "sessionpred", newPredState, sessionUpdate, opts, stream)
		}
	}
}

// TestSeedEquivalenceFunnel covers the Figure 1 multi-field UDA
// (bool + int + vector) whose vector appends exercise the
// copy-on-append alias discipline under pooled containers.
func TestSeedEquivalenceFunnel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	items := []string{"a", "b", "c"}
	for trial := 0; trial < 20; trial++ {
		stream := make([]funnelEvent, 100+r.Intn(100))
		for i := range stream {
			stream[i] = funnelEvent{kind: r.Intn(4), item: items[r.Intn(len(items))]}
		}
		checkEquiv(t, "funnel", newFunnelState, funnelUpdate, DefaultOptions(), stream)
	}
}

// FuzzSeedEquivalence lets the fuzzer pick the event stream; every
// corpus entry must keep the compiled engine byte-identical to the seed
// engine for both the max UDA and the sessionization UDA.
func FuzzSeedEquivalence(f *testing.F) {
	f.Add([]byte{3, 8, 50, 55, 200})
	f.Add([]byte{0, 0, 0, 1, 2, 1, 0, 255, 254, 3})
	f.Add(bytes.Repeat([]byte{7, 9}, 80))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		stream := make([]int64, len(raw))
		for i, b := range raw {
			stream[i] = int64(b)
		}
		opts := Options{MaxLivePaths: 4, MaxRunsPerRecord: 1 << 12}
		checkEquiv(t, "fuzz/max", newIntState(math.MinInt64), maxUpdate, opts, stream)
		checkEquiv(t, "fuzz/session", newPredState, sessionUpdate, opts, stream)
	})
}
