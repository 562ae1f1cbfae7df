package queries

import (
	"testing"

	"repro/internal/sym"
)

// TestMetamorphicComposition checks the composition algebra the SYMPLE
// engine relies on — associativity of summary composition and the
// equivalence of ComposeAll with the sequential apply fold (§3.6) — on
// real summaries produced from the seeded small corpora, for every
// query schema and several mapper-split widths — and, over the same
// executor runs, that the bundle a map task appends straight from the
// executor's paths is byte for byte the snapshot API's
// (EncodeSummaryBundle over Finish), for a group too
// large to ship its events — and, for a group that does, that its events
// bundle folds to the state its summaries' does, from the initial state
// and from seeded random prefixes, without writing them. A second pass,
// over whole keys under a live-path cap of 1, makes keys restart, so
// multi-summary bundles are compared too. The
// subtests run in parallel so the race detector also exercises
// concurrent exec and fold sites over shared schemas.
func TestMetamorphicComposition(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			segs := datasets[spec.Dataset]
			checkedTriples := 0
			for _, splits := range []int{2, 3, 4, 7} {
				rep, err := composeCheck(spec, segs, splits, sym.Options{})
				if err != nil {
					t.Fatalf("splits=%d: %v", splits, err)
				}
				if rep.Keys == 0 && rep.Skipped == 0 {
					t.Fatalf("splits=%d: vacuous check — no groups produced summaries", splits)
				}
				if rep.Events < rep.Keys {
					t.Fatalf("splits=%d: %d event groups checked for %d keys", splits, rep.Events, rep.Keys)
				}
				t.Logf("splits=%d: %d keys, %d summaries, %d triples, %d skipped, %d event groups",
					splits, rep.Keys, rep.Summaries, rep.Triples, rep.Skipped, rep.Events)
				checkedTriples += rep.Triples
			}
			if checkedTriples == 0 {
				t.Error("no associativity triples checked at any split width — groups never yielded 3 composable summaries")
			}
			rep, err := composeCheck(spec, segs, 1, sym.Options{MaxLivePaths: 1, DisableMerging: true})
			if err != nil {
				t.Fatalf("path cap 1: %v", err)
			}
			t.Logf("path cap 1: %d bundles, %d of keys that restarted", rep.Bundles, rep.Restarted)
			if rep.Bundles == 0 {
				t.Error("no bundle compared")
			}
			// G1, G2 and R1 never hold two live paths (an enum or a flag
			// that binds on every branch; a bare counter), so no cap makes
			// them restart.
			if rep.Restarted == 0 && spec.ID != "G1" && spec.ID != "G2" && spec.ID != "R1" {
				t.Error("no key restarted under a live-path cap of 1: the multi-summary bundle went unchecked")
			}
		})
	}
}
