package queries

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
)

// TestSympleOptsEquivalence pins the symbolic runtime to the sequential
// reference across memoization on, off and under constant eviction (the
// memo test hook), and the mapper-side combiner. Every configuration
// must produce the sequential digest on all 12 queries.
func TestSympleOptsEquivalence(t *testing.T) {
	configs := []struct {
		name string
		memo int
		opt  core.SympleOptions
	}{
		{"memo", 0, core.SympleOptions{}},
		{"nomemo", -1, core.SympleOptions{}},
		{"tinymemo", 2, core.SympleOptions{}}, // constant eviction
		{"combine", 0, core.SympleOptions{Combine: true}},
		{"combine-nomemo", -1, core.SympleOptions{Combine: true}},
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
					got, err := spec.SympleOpts(segs, mapreduce.Config{NumReducers: 3}, cfg.opt)
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

// TestSympleOptsMemoStats sanity-checks the surfaced counters: a
// skewed-key query (G1 groups by repo) must report memo traffic and run
// probes, and a disabled memo must report no memo traffic. (How the
// traffic splits between hits, misses and probe-free identity skips
// depends on which pooled executor a map task drew, so only the totals
// are pinned.)
func TestSympleOptsMemoStats(t *testing.T) {
	segs := smallDatasets(4)["github"]
	on, err := G1().SympleOpts(segs, mapreduce.Config{NumReducers: 3}, core.SympleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Sym.MemoHits+on.Sym.MemoMisses == 0 || on.Sym.RunProbes == 0 {
		t.Fatalf("G1 with memo reported no memo traffic or no run probes: %+v", on.Sym)
	}
	restore := core.SetMemoSizeForTest(-1)
	off, err := G1().SympleOpts(segs, mapreduce.Config{NumReducers: 3}, core.SympleOptions{})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if off.Sym.MemoHits != 0 || off.Sym.MemoMisses != 0 {
		t.Fatalf("disabled memo reported traffic: %+v", off.Sym)
	}
}
