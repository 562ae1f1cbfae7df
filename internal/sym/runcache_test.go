package sym

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

// siteBundle runs one key through site the way a map task does —
// IdentityBundle, else Reset, FeedBatch, AppendBundle into enc — and
// returns the key's bundle, valid until site or enc is next used.
func siteBundle[S State](t *testing.T, site *Executor[S, int64], enc *wire.Encoder, evs []int64) []byte {
	t.Helper()
	if b := site.IdentityBundle(evs); b != nil {
		return b
	}
	site.Reset()
	if err := site.FeedBatch(evs); err != nil {
		t.Fatal(err)
	}
	enc.Reset()
	if _, err := site.AppendBundle(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// feedBundle is the bundle of evs fed record by record to a fresh
// executor: the oracle a folded run must reproduce.
func feedBundle[S State](t *testing.T, sc *Schema[S], update func(*Ctx, S, int64), evs []int64) []byte {
	t.Helper()
	x := NewSchemaExecutor(sc, update, DefaultOptions())
	for _, ev := range evs {
		if err := x.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	var enc wire.Encoder
	if _, err := x.AppendBundle(&enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

// t1RunKeys builds T1-shaped keys: alternating runs of its two events,
// 0 and 1, with lengths on both sides of minRunLen and of runPowBound.
func t1RunKeys(r *rand.Rand, n int) [][]int64 {
	lens := []int{1, 2, minRunLen - 1, minRunLen, minRunLen + 1, 7, 26,
		runPowBound - 1, runPowBound, runPowBound + 1, 2*runPowBound + 3}
	keys := make([][]int64, n)
	for k := range keys {
		ev := int64(r.Intn(2))
		for runs := 1 + r.Intn(5); runs > 0; runs-- {
			for m := lens[r.Intn(len(lens))]; m > 0; m-- {
				keys[k] = append(keys[k], ev)
			}
			ev ^= 1
		}
	}
	return keys
}

// TestRunCacheHistoryIndependent: a run's bundle does not depend on what
// the run cache learnt before it. T1-shaped keys fed forward, in
// reverse, interleaved with keys of ten more run events (more than the
// cache holds, so entries are evicted and rebuilt) and each on a fresh
// executor give the same bytes, and a fresh executor's are the
// per-record feed's (checkEquiv).
func TestRunCacheHistoryIndependent(t *testing.T) {
	sc := newSchema(newT1Shape)
	keys := t1RunKeys(rand.New(rand.NewSource(41)), 80)
	var enc wire.Encoder
	fresh := make([][]byte, len(keys))
	freshRuns := 0
	for k, evs := range keys {
		checkEquiv(t, "t1 runs", newT1Shape, t1ShapeUpdate, DefaultOptions(), evs)
		x := NewSchemaExecutor(sc, t1ShapeUpdate, DefaultOptions())
		fresh[k] = bytes.Clone(siteBundle(t, x, &enc, evs))
		freshRuns += x.Stats().Runs
	}
	// Events 2…11 take t1ShapeUpdate's non-spam branch, as 0 does, but
	// each is an entry of its own.
	filler := func(k int) []int64 {
		evs := slices.Repeat([]int64{int64(2 + k%10)}, minRunLen+k%9)
		return append(evs, slices.Repeat([]int64{int64(2 + (k+3)%10)}, minRunLen+k%5)...)
	}
	orders := map[string][]int{"forward": nil, "reverse": nil, "interleaved": nil}
	for k := range keys {
		orders["forward"] = append(orders["forward"], k)
		orders["reverse"] = append(orders["reverse"], len(keys)-1-k)
		orders["interleaved"] = append(orders["interleaved"], k, -1-k)
	}
	for name, order := range orders {
		site := NewSchemaExecutor(sc, t1ShapeUpdate, DefaultOptions())
		for _, k := range order {
			if k < 0 {
				evs := filler(-1 - k)
				if got, want := siteBundle(t, site, &enc, evs), feedBundle(t, sc, t1ShapeUpdate, evs); !bytes.Equal(got, want) {
					t.Fatalf("%s: filler key %v: site %x, per-record feed %x", name, evs, got, want)
				}
				continue
			}
			if got := siteBundle(t, site, &enc, keys[k]); !bytes.Equal(got, fresh[k]) {
				t.Fatalf("%s: key %d: warm site %x, fresh executor %x", name, k, got, fresh[k])
			}
		}
		if name == "forward" && site.Stats().Runs >= freshRuns {
			t.Errorf("the warm site ran Update %d times, fresh executors %d: the run cache served nothing",
				site.Stats().Runs, freshRuns)
		}
	}
}

// runFoldUpdate is T1's shape over a three-event alphabet: 0 and 1 are
// T1's events and 2 is an identity, so the one cache holds verdicts,
// ladders and powers side by side.
func runFoldUpdate(ctx *Ctx, s *t1Shape, e int64) {
	if e != 2 {
		t1ShapeUpdate(ctx, s, e)
	}
}

// runFoldKeys cuts fuzz data into keys, two bytes a run: event a%3,
// length 1+b; a pair whose first byte is 0xff ends the key instead. The
// keys hold at most 1<<12 records between them.
func runFoldKeys(data []byte) [][]int64 {
	var keys [][]int64
	var evs []int64
	total := 0
	for i := 0; i+1 < len(data) && total < 1<<12; i += 2 {
		if data[i] == 0xff {
			keys, evs = append(keys, evs), nil
			continue
		}
		n := 1 + int(data[i+1])
		evs = append(evs, slices.Repeat([]int64{int64(data[i] % 3)}, n)...)
		total += n
	}
	return append(keys, evs)
}

// runFoldSeedCorpus builds the committed run-fold corpus: alternating
// T1 runs short and long, runs on both sides of minRunLen and
// runPowBound, identity runs between advancing ones, all-identity keys,
// single records, and a run inside which the per-record feed restarts
// (its fold would end past the live-path cap).
func runFoldSeedCorpus() []fuzzseed.Seed {
	runs := func(pairs ...byte) []byte { return pairs }
	return []fuzzseed.Seed{
		{Name: "t1-alternating.bin", Data: runs(0, 6, 1, 11, 0, 3, 1, 25, 0, 4, 1, 5)},
		{Name: "t1-keys.bin", Data: runs(1, 4, 0, 9, 0xff, 0, 0, 1, 4, 0, 9, 0xff, 0, 0, 0, 9, 1, 4)},
		{Name: "run-bounds.bin", Data: runs(1, minRunLen-2, 0, minRunLen-1, 1, minRunLen,
			0, runPowBound-2, 1, runPowBound-1, 0, runPowBound, 1, 2*runPowBound+2)},
		{Name: "long-runs.bin", Data: runs(1, 255, 0, 129, 1, 200, 0xff, 1, 100, 0, 255)},
		{Name: "identity-between.bin", Data: runs(2, 9, 1, 6, 2, 0, 0, 7, 2, 40, 1, 6, 2, 2)},
		{Name: "identity-keys.bin", Data: runs(2, 1, 0xff, 0, 2, 20, 0xff, 0, 2, 3, 2, 3)},
		{Name: "single-records.bin", Data: runs(0, 0, 1, 0, 2, 0, 0xff, 0, 1, 0, 0, 0xff, 0, 2, 0)},
		{Name: "restart-inside-run.bin", Data: runs(1, 1, 2, 0, 1, 4)},
	}
}

// TestUpdateRunFoldFuzzSeeds regenerates the committed run-fold corpus
// when run with -update-fuzz-seeds; otherwise it only checks the
// generator runs.
func TestUpdateRunFoldFuzzSeeds(t *testing.T) {
	corpus := runFoldSeedCorpus()
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/runs", len(corpus))
	}
	if err := fuzzseed.Update("runs", corpus); err != nil {
		t.Fatal(err)
	}
}

// FuzzRunFold feeds fuzzed keys — runs of fuzzed length over a 3-event
// alphabet — through one warm exec site: each key's bundle must be a
// fresh executor's and the per-record feed's, whatever the run cache
// learnt from the keys before it.
func FuzzRunFold(f *testing.F) {
	seeds, err := fuzzseed.Load("runs")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := newSchema(newT1Shape)
		site := NewSchemaExecutor(sc, runFoldUpdate, DefaultOptions())
		var warm, cold wire.Encoder
		for k, evs := range runFoldKeys(data) {
			got := siteBundle(t, site, &warm, evs)
			fresh := siteBundle(t, NewSchemaExecutor(sc, runFoldUpdate, DefaultOptions()), &cold, evs)
			if !bytes.Equal(got, fresh) {
				t.Fatalf("key %d: warm site %x, fresh executor %x", k, got, fresh)
			}
			if want := feedBundle(t, sc, runFoldUpdate, evs); !bytes.Equal(got, want) {
				t.Fatalf("key %d: warm site %x, per-record feed %x", k, got, want)
			}
		}
	})
}
