package queries

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// TestSympleMemoEquivalence pins the symbolic runtime to the sequential
// reference across memoization on, off and under constant eviction (the
// memo test hook). Every configuration must produce the sequential
// digest on all 12 queries.
func TestSympleMemoEquivalence(t *testing.T) {
	configs := []struct {
		name string
		memo int
	}{
		{"memo", 0},
		{"nomemo", -1},
		{"tinymemo", 2}, // constant eviction
	}
	for _, segments := range []int{1, 4} {
		datasets := smallDatasets(segments)
		for _, spec := range All() {
			spec := spec
			segs := datasets[spec.Dataset]
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatalf("%s: sequential: %v", spec.ID, err)
			}
			t.Run(spec.ID, func(t *testing.T) {
				for _, cfg := range configs {
					restore := core.SetMemoSizeForTest(cfg.memo)
					got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
					restore()
					if err != nil {
						t.Fatalf("segments=%d %s: %v", segments, cfg.name, err)
					}
					if got.Digest != seq.Digest || got.NumResults != seq.NumResults {
						t.Errorf("segments=%d %s: digest %x (%d results) != sequential %x (%d)",
							segments, cfg.name, got.Digest, got.NumResults, seq.Digest, seq.NumResults)
					}
				}
			})
		}
	}
}

// TestSympleMemoStats sanity-checks the surfaced counters: a
// skewed-key query (G1 groups by repo) must report memo traffic and run
// probes, and a disabled memo must report no memo traffic. (How the
// traffic splits between hits, misses and probe-free identity skips
// depends on which pooled executor a map task drew, so only the totals
// are pinned.)
func TestSympleMemoStats(t *testing.T) {
	segs := smallDatasets(4)["github"]
	on, err := G1().Symple(segs, mapreduce.Config{NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if on.Sym.MemoHits+on.Sym.MemoMisses == 0 || on.Sym.RunProbes == 0 {
		t.Fatalf("G1 with memo reported no memo traffic or no run probes: %+v", on.Sym)
	}
	restore := core.SetMemoSizeForTest(-1)
	off, err := G1().Symple(segs, mapreduce.Config{NumReducers: 3})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if off.Sym.MemoHits != 0 || off.Sym.MemoMisses != 0 {
		t.Fatalf("disabled memo reported traffic: %+v", off.Sym)
	}
}
