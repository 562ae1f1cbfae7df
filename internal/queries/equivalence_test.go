package queries

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/serve"
)

// randomChunking re-segments a corpus at random cut points, preserving
// global record order. Engine equivalence must hold for any chunking —
// summaries compose across arbitrary chunk boundaries (§3.6/§5.4).
func randomChunking(rng *rand.Rand, segs []*mapreduce.Segment, numSegments int) []*mapreduce.Segment {
	var records [][]byte
	for _, s := range segs {
		records = append(records, s.Records...)
	}
	out := make([]*mapreduce.Segment, numSegments)
	for i := range out {
		out[i] = &mapreduce.Segment{ID: i}
	}
	cuts := make([]int, 0, numSegments)
	for i := 0; i < numSegments-1; i++ {
		cuts = append(cuts, rng.Intn(len(records)+1))
	}
	cuts = append(cuts, len(records))
	sort.Ints(cuts)
	lo := 0
	for seg, hi := range cuts {
		out[seg].Records = records[lo:hi]
		lo = hi
	}
	return out
}

// TestEquivalenceAllEnginesAllQueries is the determinism/equivalence
// gate: for every one of the paper's 12 evaluation queries, on
// randomized chunkings, every engine — Sequential, Baseline, Symple,
// and Symple with the mapper-side combiner — produces identical
// results.
func TestEquivalenceAllEnginesAllQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := smallDatasets(4)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			for round := 0; round < 2; round++ {
				numSegs := 1 + rng.Intn(6)
				segs := randomChunking(rng, base[spec.Dataset], numSegs)
				seq, err := spec.Sequential(segs)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				conf := mapreduce.Config{NumReducers: 1 + rng.Intn(4)}
				engines := []struct {
					name string
					run  func() (*Run, error)
				}{
					{"baseline", func() (*Run, error) { return spec.Baseline(segs, conf) }},
					{"symple", func() (*Run, error) { return spec.Symple(segs, conf) }},
					{"symple-combined", func() (*Run, error) { return spec.SympleCombined(segs, conf) }},
				}
				for _, eng := range engines {
					run, err := eng.run()
					if err != nil {
						t.Fatalf("round %d %s: %v", round, eng.name, err)
					}
					if run.Digest != seq.Digest || run.NumResults != seq.NumResults {
						t.Errorf("round %d (%d segs): %s digest %x (%d results) != sequential %x (%d)",
							round, numSegs, eng.name, run.Digest, run.NumResults, seq.Digest, seq.NumResults)
					}
				}
			}
		})
	}
}

// TestCombinerShrinksSummaryTraffic spot-checks the combiner's purpose
// on a query whose groups span all mappers: it must never increase the
// number of shuffled summaries, and on the single-group B1 it should cut
// multi-summary bundles down.
func TestCombinerShrinksSummaryTraffic(t *testing.T) {
	segs := data.GenBing(data.BingConfig{
		Records: 8000, Users: 400, Geos: 12, Segments: 8,
		Filler: 8, Seed: 12, Outages: 6})
	spec := ByID("B1")
	conf := mapreduce.Config{NumReducers: 1}
	plain, err := spec.Symple(segs, conf)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := spec.SympleCombined(segs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Digest != plain.Digest {
		t.Fatal("combiner changed B1's result")
	}
	if combined.Sym.Summaries > plain.Sym.Summaries {
		t.Errorf("combiner increased shuffled summaries: %d > %d",
			combined.Sym.Summaries, plain.Sym.Summaries)
	}
	if combined.Metrics.ShuffleBytes > plain.Metrics.ShuffleBytes {
		t.Errorf("combiner increased shuffle bytes: %d > %d",
			combined.Metrics.ShuffleBytes, plain.Metrics.ShuffleBytes)
	}
}

// serveSessionFold answers the query the way the query service does,
// minus the server and the shuffle: map each segment with the session's
// mapper (one bundle per key) and fold the per-key bundles, in dataset
// order, through the session's standing per-key folds.
func serveSessionFold(t *testing.T, id string, segs []*mapreduce.Segment) serve.Result {
	t.Helper()
	sess, err := serve.Lookup(id).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mapFn, err := sess.Mapper(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		bundles := map[string][]byte{}
		emit := func(key string, _ int64, value []byte) { bundles[key] = value }
		if err := mapFn(i, seg, emit); err != nil {
			t.Fatal(err)
		}
		if err := sess.Fold(bundles); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFoldSitesAgree pins the one-fold claim on all 12 queries: the
// three places an ordered summary list becomes a state — the
// in-process reducer, the w2w partition owner (SympleCombiner, whose
// constant summary the coordinator-side reducer then applies) and the
// query service's standing session — all go through sym.Fold and must
// all produce the sequential digest.
func TestFoldSitesAgree(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	eps := chaosWorkers(t, 2)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			segs := datasets[spec.Dataset]
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatal(err)
			}
			conf := mapreduce.Config{NumReducers: 3}
			reducer, err := spec.Symple(segs, conf)
			if err != nil {
				t.Fatalf("reducer fold: %v", err)
			}
			pool, err := cluster.NewPool(ClusterSpec(spec.ID, conf, core.SympleOptions{}), eps, cluster.WithW2W())
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			conf.RemoteMap, conf.RemoteReduce = pool, pool
			owner, err := spec.SympleOpts(segs, conf, core.SympleOptions{})
			if err != nil {
				t.Fatalf("owner fold: %v", err)
			}
			session := serveSessionFold(t, spec.ID, segs)
			for _, got := range []struct {
				site    string
				digest  uint64
				results int
			}{
				{"reducer", reducer.Digest, reducer.NumResults},
				{"w2w owner", owner.Digest, owner.NumResults},
				{"serve session", session.Digest, session.NumResults},
			} {
				if got.digest != seq.Digest || got.results != seq.NumResults {
					t.Errorf("%s fold: digest %016x (%d results) != sequential %016x (%d)",
						got.site, got.digest, got.results, seq.Digest, seq.NumResults)
				}
			}
		})
	}
}
