package main

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sym"
	"repro/internal/wire"
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
		if err := site.Fold(states[k], states[k], sym.EncodeSummaryBundle(sums)); err != nil {
			t.Fatal(err)
		}
		for j, st := range states {
			if got := st.State().Max.Get(); got != want[j] {
				t.Fatalf("step %d (key %d folded): key %d holds %d, want %d", step, k, j, got, want[j])
			}
		}
	}
}

// TestUserValueFoldsFromFrozenState: the query service shares a frozen
// state between jobs and folds from it into states of their own
// (Folder.Fold from it), so a user Value's Admits, Concretize and CopyFrom
// must only read the value they are handed. Eight sites fold different
// bundles from one state at once; under -race any write to it shows, and
// its encoding is byte-identical afterwards.
func TestUserValueFoldsFromFrozenState(t *testing.T) {
	newCustom := func() *customState { return &customState{Max: NewSymMax(math.MinInt64)} }
	sc, err := sym.NewSchema(newCustom)
	if err != nil {
		t.Fatal(err)
	}
	bundle := func(events ...int64) []byte {
		x := sym.NewSchemaExecutor(sc, func(_ *sym.Ctx, s *customState, e int64) { s.Max.Observe(e) }, sym.DefaultOptions())
		for _, e := range events {
			if err := x.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return sym.EncodeSummaryBundle(sums)
	}
	site := sym.NewFolder(sc)
	frozen := site.NewState()
	if err := site.Fold(frozen, frozen, bundle(40, 10)); err != nil {
		t.Fatal(err)
	}
	var before wire.Encoder
	frozen.Encode(&before)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		data, want := bundle(int64(g*10)), max(int64(g*10), 40)
		wg.Add(1)
		go func() {
			defer wg.Done()
			site := sym.NewFolder(sc)
			for i := 0; i < 200; i++ {
				own := site.NewState()
				if err := site.Fold(own, frozen, data); err != nil {
					t.Error(err)
					return
				}
				if got := own.State().Max.Get(); got != want {
					t.Errorf("folded from 40: got %d, want %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	var after wire.Encoder
	frozen.Encode(&after)
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("folding from the frozen state changed it")
	}
}
