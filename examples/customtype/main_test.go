package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sym"
)

// TestUserValueFoldsThroughSharedSite: a fold site decodes every bundle
// into containers it reuses and copies the admitting path out with
// CopyFrom, so a user Value folds correctly on the plain Value contract
// — Decode and CopyFrom overwrite the receiver in full — and nothing
// else. Several keys share one site; each must end where its own
// observations say, whatever the other keys' bundles did in between.
func TestUserValueFoldsThroughSharedSite(t *testing.T) {
	newCustom := func() *customState { return &customState{Max: NewSymMax(math.MinInt64)} }
	sc, err := sym.NewSchema(newCustom)
	if err != nil {
		t.Fatal(err)
	}
	site := sym.NewFolder(sc)
	r := rand.New(rand.NewSource(3))
	const nkeys = 5
	states := make([]*sym.FoldState[*customState], nkeys)
	want := make([]int64, nkeys)
	for k := range states {
		states[k], want[k] = site.NewState(), math.MinInt64
	}
	for step := 0; step < 500; step++ {
		k := r.Intn(nkeys)
		x := sym.NewSchemaExecutor(sc, func(_ *sym.Ctx, s *customState, e int64) { s.Max.Observe(e) }, sym.DefaultOptions())
		for n := 1 + r.Intn(4); n > 0; n-- {
			e := int64(r.Intn(1000))
			want[k] = max(want[k], e)
			if err := x.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := site.AddBundle(states[k], sym.EncodeSummaryBundle(sums)); err != nil {
			t.Fatal(err)
		}
		for j, st := range states {
			if got := st.State().Max.Get(); got != want[j] {
				t.Fatalf("step %d (key %d folded): key %d holds %d, want %d", step, k, j, got, want[j])
			}
		}
	}
}
