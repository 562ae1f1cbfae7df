package queries

import (
	"testing"
)

// TestMetamorphicComposition checks the composition algebra the SYMPLE
// engine relies on — associativity of summary composition and the
// equivalence of ComposeAll with the sequential apply fold (§3.6) — on
// real summaries produced from the seeded small corpora, for every
// query schema and several mapper-split widths. The subtests run in
// parallel so the race detector also exercises concurrent folds against
// the schema pools.
func TestMetamorphicComposition(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			segs := datasets[spec.Dataset]
			checkedTriples := 0
			for _, splits := range []int{2, 3, 4, 7} {
				rep, err := spec.ComposeCheck(segs, splits)
				if err != nil {
					t.Fatalf("splits=%d: %v", splits, err)
				}
				if rep.Keys == 0 && rep.Skipped == 0 {
					t.Fatalf("splits=%d: vacuous check — no groups produced summaries", splits)
				}
				t.Logf("splits=%d: %d keys, %d summaries, %d triples, %d skipped",
					splits, rep.Keys, rep.Summaries, rep.Triples, rep.Skipped)
				checkedTriples += rep.Triples
			}
			if checkedTriples == 0 {
				t.Error("no associativity triples checked at any split width — groups never yielded 3 composable summaries")
			}
		})
	}
}
