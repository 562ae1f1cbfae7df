package sym

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// checkSiteBundles runs many keys through one reused executor the way a
// map task does — IdentityBundle, else Reset, FeedBatch, AppendBundle —
// and holds every key's bytes to the snapshot API on an executor of the
// key's own: EncodeSummaryBundle over Finish — or, with the event codec
// and a key of at most maxEventGroup events, to its events' bundle. It
// returns how many keys took the identity shortcut, restarted and
// shipped their events, so callers can reject a vacuous pass.
func checkSiteBundles[S State](t *testing.T, newState func() S, update func(*Ctx, S, int64),
	opts Options, events bool, keys [][]int64) (ident, restarted, evented int) {
	t.Helper()
	sc := newSchema(newState)
	if events {
		sc = eventSchema(t, newState, update)
	}
	site := NewSchemaExecutor(sc, update, opts)
	var enc wire.Encoder
	used := false
	for ki, evs := range keys {
		// Reference: a fresh executor, the snapshot API.
		ref := NewSchemaExecutor(sc, update, opts)
		if err := ref.FeedBatch(evs); err != nil {
			t.Fatal(err)
		}
		snap, err := ref.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want := EncodeSummaryBundle(snap)
		if events && len(evs) <= maxEventGroup {
			want, snap = eventBundle(evs...), snap[:1]
			evented++
		}

		got := site.IdentityBundle(evs)
		if got != nil {
			ident++
		} else {
			if used {
				site.Reset()
			}
			used = true
			if err := site.FeedBatch(evs); err != nil {
				t.Fatal(err)
			}
			enc.Reset()
			n, err := site.AppendBundle(&enc)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(snap) {
				t.Fatalf("key %d: AppendBundle reports %d summaries, snapshot has %d", ki, n, len(snap))
			}
			if n > 1 {
				restarted++
			}
			got = enc.Bytes()
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d %v: site bundle %x, snapshot bundle %x", ki, evs, got, want)
		}
	}
	return ident, restarted, evented
}

// siteKeys is a seeded key mix in the shapes a high-cardinality chunk
// has: mostly one or two records, some runs, a few long streams.
func siteKeys(r *rand.Rand, n, span int) [][]int64 {
	keys := make([][]int64, n)
	for k := range keys {
		var evs []int64
		switch r.Intn(6) {
		case 0, 1:
			evs = []int64{int64(r.Intn(span))}
		case 2:
			evs = []int64{int64(r.Intn(span)), int64(r.Intn(span))}
		case 3:
			evs = make([]int64, 2+r.Intn(6)) // one event repeated: a foldable run
			v := int64(r.Intn(span))
			for i := range evs {
				evs[i] = v
			}
		default:
			evs = runStream(r, 3+r.Intn(40), span, 1+r.Intn(4))
		}
		keys[k] = evs
	}
	return keys
}

// TestExecSiteBundleMatchesSnapshot: what a map task appends straight
// from a reused executor's paths is byte for byte what Finish +
// EncodeSummaryBundle produce — for forking, vector-carrying and
// predicate states, in both forms, for keys that restart (path cap →
// several summaries), keys that ship their events and all-identity keys.
func TestExecSiteBundleMatchesSnapshot(t *testing.T) {
	caps := []Options{
		DefaultOptions(),
		{MaxLivePaths: 2},
		{MaxLivePaths: 1, DisableMerging: true},
	}
	for oi, opts := range caps {
		for _, events := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(100 + oi)))
			var restarted, evented int
			tally := func(_, rs, ev int) { restarted, evented = restarted+rs, evented+ev }
			tally(checkSiteBundles(t, newIntState(math.MinInt64), maxUpdate, opts, events, siteKeys(r, 300, 30)))
			tally(checkSiteBundles(t, newPredState, sessionUpdate, opts, events, siteKeys(r, 300, 40)))
			tally(checkSiteBundles(t, newLogState, logUpdate, opts, events, siteKeys(r, 200, 25)))
			tally(checkSiteBundles(t, newT1Shape, t1ShapeUpdate, opts, events, siteKeys(r, 300, 2)))
			if opts.MaxLivePaths == 1 && restarted == 0 {
				t.Errorf("cap 1, events %v: no key restarted — the multi-summary bundle went unchecked", events)
			}
			if events && evented == 0 {
				t.Errorf("cap %d: no key shipped its event", opts.MaxLivePaths)
			}
		}
	}
	// The gate state's zero event is the identity: once a run of zeros
	// has seeded the verdict, all-zero keys take the constant bundle.
	r := rand.New(rand.NewSource(7))
	keys := [][]int64{{0, 0, 0}}
	for k := 0; k < 200; k++ {
		evs := make([]int64, 1+r.Intn(5))
		if r.Intn(3) == 0 {
			evs[r.Intn(len(evs))] = int64(1 + r.Intn(3))
		}
		keys = append(keys, evs)
	}
	if ident, _, _ := checkSiteBundles(t, newIntState(0), gateUpdate, DefaultOptions(), false, keys); ident < 100 {
		t.Errorf("%d keys took the identity bundle, want most of the %d all-zero ones", ident, len(keys))
	}
	// With the event codec a key of at most maxEventGroup zeros ships its
	// events, whatever the run cache has learnt — the form depends on
	// the group alone (checkSiteBundles holds each to its events' bytes) —
	// and a longer all-zero key still takes the constant bundle.
	keys = [][]int64{make([]int64, maxEventGroup+1)}
	for k := 0; k < 300; k++ {
		evs := make([]int64, 1+r.Intn(2*maxEventGroup))
		if r.Intn(3) == 0 {
			evs[r.Intn(len(evs))] = int64(1 + r.Intn(3))
		}
		keys = append(keys, evs)
	}
	if ident, _, ev := checkSiteBundles(t, newIntState(0), gateUpdate, DefaultOptions(), true, keys); ident < 50 || ev < 100 {
		t.Errorf("with events: %d keys took the identity bundle and %d their events", ident, ev)
	}
}

// TestExecSiteResetAfterError: an aborted feed leaves the executor's
// path set and stack unspecified; Reset must drop both, so the next key
// — and every one after — still matches a fresh executor's bundle.
func TestExecSiteResetAfterError(t *testing.T) {
	// Min explores its symbolic path (x below everything seen) before
	// the concrete one. The abort comes while the concrete path is
	// updated in place, after the symbolic one was explored and retired:
	// its container is on the stack while the path set still lists it.
	const explode = -1000
	update := func(ctx *Ctx, s *intState, e int64) {
		if e == explode && s.V.IsConcrete() {
			fail(ErrPathExplosion)
		}
		if !s.V.Le(ctx, e) {
			s.V.Set(e)
		}
	}
	sc := newSchema(newIntState(math.MaxInt64))
	site := NewSchemaExecutor(sc, update, DefaultOptions())
	if err := site.FeedBatch([]int64{3, explode, 5}); err == nil {
		t.Fatal("exploding update fed cleanly")
	}
	if !slices.Contains(site.free, site.paths[0]) {
		t.Fatal("the abort did not come between a live path's retirement and its reuse: the test no longer sets up what it checks")
	}
	site.Reset()
	for _, p := range site.free {
		if p == site.paths[0] {
			t.Fatal("after Reset the live path's container is also on the stack")
		}
	}
	r := rand.New(rand.NewSource(3))
	var enc wire.Encoder
	for k := 0; k < 50; k++ {
		evs := runStream(r, 1+r.Intn(20), 30, 2)
		site.Reset()
		if err := site.FeedBatch(evs); err != nil {
			t.Fatal(err)
		}
		enc.Reset()
		if _, err := site.AppendBundle(&enc); err != nil {
			t.Fatal(err)
		}
		want := EncodeSummaryBundle(chunkSums(t, sc, update, evs))
		if !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("key %d after the aborted one: bundle %x, want %x", k, enc.Bytes(), want)
		}
	}
}

// TestExecSiteAllocCeiling: on a warm site a B3-shaped chunk — 5 000
// keys of one or two records — explored, as a schema without an event
// codec explores every group, allocates what the Values allocate (the
// assumption a forked SymPred path records, the element a closing
// session pushes) and nothing per key for the site itself: no summary,
// no container, no path list; given the codec, a key of any size up to
// maxEventGroup, shipped as its events, allocates nothing at all; a key
// made only of runs of cached events allocates nothing, runs no Update
// and merges nothing; and however many chunks follow the first — one
// cycling through more run events than the run cache holds included —
// the schema builds no container.
func TestExecSiteAllocCeiling(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const nkeys = 5000
	keys := make([][]int64, nkeys)
	for k := range keys {
		keys[k] = []int64{int64(r.Intn(1000))}
		if r.Intn(4) == 0 { // B3 at the benchmark's size: 72% of groups hold one record
			keys[k] = append(keys[k], keys[k][0]+int64(r.Intn(30)))
		}
	}
	var enc wire.Encoder
	run := func(site *Executor[*predState, int64], keys [][]int64) {
		for _, evs := range keys {
			siteBundle(t, site, &enc, evs)
		}
	}
	for _, sc := range []*Schema[*predState]{newSchema(newPredState), eventSchema(t, newPredState, sessionUpdate)} {
		site := NewSchemaExecutor(sc, sessionUpdate, DefaultOptions())
		events := sc.applyEvent != nil
		chunk := func() { run(site, keys) }
		chunk()
		base := sc.Allocated()
		// Allocation counts are not meaningful under the race detector; the
		// container count is.
		if perKey := testing.AllocsPerRun(5, chunk) / nkeys; perKey > 4 && !raceEnabled {
			t.Errorf("events %v: %.2f allocations per key on a warm site, want at most 4", events, perKey)
		}
		for n := 1; events && n <= maxEventGroup; n++ {
			group := make([]int64, n)
			for i := range group {
				group[i] = int64(r.Intn(1000))
			}
			if got := testing.AllocsPerRun(20, func() { run(site, [][]int64{group}) }); got != 0 && !raceEnabled {
				t.Errorf("%v allocations for a key of %d events, want none", got, n)
			}
		}
		if got := sc.Allocated(); got != base {
			t.Errorf("events %v: the schema built %d containers after the first chunk", events, got-base)
		}
	}
	// A warm key made only of runs of cached events builds nothing:
	// each run is served its power whole (or a rung of its ladder), so
	// the key allocates nothing, runs no Update and merges nothing.
	sc := newSchema(newIntState(0))
	site := NewSchemaExecutor(sc, addUpdate, DefaultOptions())
	runInt := func(keys [][]int64) {
		for _, evs := range keys {
			siteBundle(t, site, &enc, evs)
		}
	}
	var warm []int64
	for i, n := range []int{minRunLen, 12, runPowBound - 1, 16, 7} {
		warm = append(warm, slices.Repeat([]int64{int64(1 + i%3)}, n)...)
	}
	runInt([][]int64{warm})
	before := site.Stats()
	if got := testing.AllocsPerRun(20, func() { runInt([][]int64{warm}) }); got != 0 && !raceEnabled {
		t.Errorf("%v allocations for a warm key of cached runs, want none", got)
	}
	if after := site.Stats(); after.Runs != before.Runs || after.Merges != before.Merges || after.RunProbes == before.RunProbes {
		t.Errorf("a warm key of cached runs: Update runs %d → %d, merges %d → %d, runs folded %d → %d",
			before.Runs, after.Runs, before.Merges, after.Merges, before.RunProbes, after.RunProbes)
	}
	// A chunk cycling through 16 run events, twice the cache's entries,
	// evicts on every miss: the evicted transitions go back to the stack,
	// so after the first chunk the schema builds no container.
	cycle := make([][]int64, 64)
	for k := range cycle {
		cycle[k] = slices.Repeat([]int64{int64(10 + k%16)}, minRunLen+k%(2*runPowBound))
	}
	runInt(cycle)
	base := sc.Allocated()
	for range 3 {
		runInt(cycle)
	}
	if got := sc.Allocated(); got != base {
		t.Errorf("cycling 16 run events: the schema built %d containers after the first chunk", got-base)
	}
}
