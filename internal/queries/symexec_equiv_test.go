package queries

import (
	"testing"

	"repro/internal/mapreduce"
)

// TestSympleMemoEquivalence pins the symbolic runtime to the sequential
// reference on all 12 queries, over one segment and over four.
func TestSympleMemoEquivalence(t *testing.T) {
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
				got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
				if err != nil {
					t.Fatalf("segments=%d: %v", segments, err)
				}
				if got.Digest != seq.Digest || got.NumResults != seq.NumResults {
					t.Errorf("segments=%d: digest %x (%d results) != sequential %x (%d)",
						segments, got.Digest, got.NumResults, seq.Digest, seq.NumResults)
				}
			})
		}
	}
}

// TestSympleRunProbeStats pins run folding end to end: G1 (runs of one
// op within a repo), T1 (alternating runs of its two events) and R1
// (every group one run of its only event) must report runs folded as a
// unit, and R1 — whose groups are each a single run, so each costs one
// fold and at most one Update run to build its transition — must not
// fall back to exploring record by record.
func TestSympleRunProbeStats(t *testing.T) {
	for _, spec := range []*Spec{ByID("G1"), ByID("T1"), ByID("R1")} {
		segs := smallDatasets(4)[spec.Dataset]
		out, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if out.Sym.RunProbes == 0 {
			t.Fatalf("%s reported no run probes: %+v", spec.ID, out.Sym)
		}
		if spec.ID == "R1" && out.Sym.Runs > out.Sym.RunProbes {
			t.Fatalf("R1 ran Update %d times over %d run probes: runs were explored record by record (%+v)",
				out.Sym.Runs, out.Sym.RunProbes, out.Sym)
		}
	}
}
