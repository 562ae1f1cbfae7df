package queries

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
	"repro/internal/wire"
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
// randomized chunkings, every engine — Sequential, Baseline and
// Symple — produces identical results.
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

// segmentBundles maps each segment with the serve session's mapper —
// the engine's own — and returns, per segment, the one bundle per key a
// batch run would shuffle and the service would cache.
func segmentBundles(t *testing.T, id string, segs []*mapreduce.Segment) []map[string][]byte {
	t.Helper()
	sess, err := serve.Lookup(id).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	mapFn, err := sess.Mapper(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]map[string][]byte, len(segs))
	for i, seg := range segs {
		out[i] = map[string][]byte{}
		emit := func(key string, _ int64, value []byte) { out[i][key] = slices.Clone(value) }
		if err := mapFn(i, seg, emit); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// sessionFold answers the query the way the query service does, minus
// the server: fold each segment's bundles, in dataset order, through a
// session's standing per-key states.
func sessionFold(t *testing.T, run serve.Runner, bundles []map[string][]byte) serve.Result {
	t.Helper()
	sess, err := run.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bundles {
		if err := sess.Fold(b); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resumedFold answers the query the way a job that finds a cached prefix
// does: one session folds the first half and freezes, a second resumes
// from the frozen prefix and folds the rest as an overlay. The first
// session goes on past its own freeze and must agree.
func resumedFold(t *testing.T, run serve.Runner, bundles []map[string][]byte) serve.Result {
	t.Helper()
	k := len(bundles) / 2
	first, err := run.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	second, err := run.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bundles[:k] {
		if err := first.Fold(b); err != nil {
			t.Fatal(err)
		}
	}
	second.Resume(first.Freeze())
	var res [2]serve.Result
	for i, sess := range []serve.Session{first, second} {
		for _, b := range bundles[k:] {
			if err := sess.Fold(b); err != nil {
				t.Fatal(err)
			}
		}
		if res[i], err = sess.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if res[0] != res[1] {
		t.Errorf("freezing session went on to %+v, resumed session to %+v", res[0], res[1])
	}
	return res[1]
}

// composerSite folds the same per-segment bundles at the site that
// needs the query's types: a StreamComposer per key (a chunk per
// segment, delivered last-first and empty where the key is absent; a
// group's events become their summaries, the composer being a
// summary-only API). absent counts the (key, segment) pairs with no
// bundle, events those whose bundle is a group's events.
func composerSite[S sym.State, E, R any](t *testing.T, run serve.Runner, bundles []map[string][]byte) (composer serve.Result, absent, events int) {
	t.Helper()
	r := run.(*serveRunner[S, E, R])
	keys := map[string]bool{}
	for _, b := range bundles {
		for key := range b {
			keys[key] = true
		}
	}
	results := make(map[string]R, len(keys))
	for key := range keys {
		c := sym.NewStreamComposer(r.q.NewState)
		for i := len(bundles) - 1; i >= 0; i-- {
			var sums []*sym.Summary[S]
			if data, ok := bundles[i][key]; ok {
				d := wire.NewDecoder(data)
				n := d.Uvarint()
				if n == 0 {
					events++
					sums = eventSummaries(t, r.q, d)
				}
				for ; n > 0; n-- {
					s, err := sym.DecodeSummary(r.q.NewState, d)
					if err != nil {
						t.Fatal(err)
					}
					sums = append(sums, s)
				}
			} else {
				absent++
			}
			if _, err := c.Add(i, sums); err != nil {
				t.Fatal(err)
			}
		}
		state, n := c.Prefix()
		if n != len(bundles) {
			t.Fatalf("key %q: composer folded %d of %d chunks", key, n, len(bundles))
		}
		results[key] = r.q.Result(key, state)
	}
	composer.Digest, composer.NumResults = digestResults(results, r.format)
	return composer, absent, events
}

// eventSummaries decodes the group of events d holds, past its zero, and
// returns their summaries.
func eventSummaries[S sym.State, E, R any](t *testing.T, q *core.Query[S, E, R], d *wire.Decoder) []*sym.Summary[S] {
	t.Helper()
	x := sym.NewExecutor(q.NewState, q.Update, q.Options)
	for n := d.Uvarint(); n > 0; n-- {
		ev, err := q.DecodeEvent(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("event bundle: %v, %d bytes left", err, d.Remaining())
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// typedSites instantiates composerSite for each query's types.
var typedSites = map[string]func(*testing.T, serve.Runner, []map[string][]byte) (composer serve.Result, absent, events int){
	"G1": composerSite[*g1State, int64, bool],
	"G2": composerSite[*g2State, int64, []int64],
	"G3": composerSite[*g3State, int64, []int64],
	"G4": composerSite[*g4State, g4Event, []int64],
	"B1": composerSite[*b1State, int64, []int64],
	"B2": composerSite[*b2State, int64, int64],
	"B3": composerSite[*b3State, int64, []int64],
	"T1": composerSite[*t1State, int64, []int64],
	"R1": composerSite[*r1State, struct{}, int64],
	"R2": composerSite[*r2State, int64, string],
	"R3": composerSite[*r3State, int64, []int64],
	"R4": composerSite[*r4State, int64, []int64],
}

// TestFoldSitesAgree pins the one-fold claim on all 12 queries: every
// place an ordered list of bundles — summary lists and small groups'
// events — becomes a state goes through sym.Folder and produces the
// sequential digest. The reducer runs as a whole job, and three sites
// fold the very same per-segment bundles: the query service's standing
// session, a session resumed from a frozen prefix, and a StreamComposer
// per key. Keys absent from some segments are part of the input.
func TestFoldSitesAgree(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	absent, events, bundleCount := 0, 0, 0
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			segs := datasets[spec.Dataset]
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatal(err)
			}
			reducer, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
			if err != nil {
				t.Fatalf("reducer fold: %v", err)
			}
			bundles := segmentBundles(t, spec.ID, segs)
			session := sessionFold(t, serve.Lookup(spec.ID), bundles)
			resumed := resumedFold(t, serve.Lookup(spec.ID), bundles)
			composer, n, ev := typedSites[spec.ID](t, serve.Lookup(spec.ID), bundles)
			absent += n
			events += ev
			for _, b := range bundles {
				bundleCount += len(b)
			}
			for _, got := range []struct {
				site    string
				digest  uint64
				results int
			}{
				{"reducer", reducer.Digest, reducer.NumResults},
				{"serve session", session.Digest, session.NumResults},
				{"resumed session", resumed.Digest, resumed.NumResults},
				{"stream composer", composer.Digest, composer.NumResults},
			} {
				if got.digest != seq.Digest || got.results != seq.NumResults {
					t.Errorf("%s fold: digest %016x (%d results) != sequential %016x (%d)",
						got.site, got.digest, got.results, seq.Digest, seq.NumResults)
				}
			}
		})
	}
	if absent == 0 {
		t.Error("every key appeared in every segment: the absent-key case went untested")
	}
	if events == 0 || events == bundleCount {
		t.Errorf("%d of %d bundles were events: both forms must be folded", events, bundleCount)
	}
}

// keyOf is rec's group key under the query; ok is false for a record it
// drops.
func (r *serveRunner[S, E, R]) keyOf(rec []byte) (key string, ok bool) {
	key, _, ok = r.q.GroupBy(rec)
	return key, ok
}

// eventCap is the largest group the query's exec site ships as its
// events, found by asking one: the cap is sym's alone, and no name
// exports it.
func (r *serveRunner[S, E, R]) eventCap(t *testing.T) int {
	t.Helper()
	x := sym.NewSchemaExecutor(r.c.Schema(), r.q.Update, r.q.Options)
	var enc wire.Encoder
	for n := 1; ; n++ {
		x.Reset()
		enc.Reset()
		if err := x.FeedBatch(make([]E, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := x.AppendBundle(&enc); err != nil {
			t.Fatal(err)
		}
		if enc.Bytes()[0] != 0 {
			return n - 1
		}
	}
}

// cutGroups re-segments a corpus so that its (mapper, key) groups take
// every size from 1 to maxSize: maxSize segments, segment i holding the
// next 1 + (i+k) mod maxSize records of the k-th key, each key's records
// in corpus order. Records past those, and records the query drops, are
// left out.
func cutGroups(segs []*mapreduce.Segment, maxSize int, keyOf func([]byte) (string, bool)) []*mapreduce.Segment {
	var keys []string
	recs := map[string][][]byte{}
	for _, seg := range segs {
		for _, rec := range seg.Records {
			key, ok := keyOf(rec)
			if !ok {
				continue
			}
			if recs[key] == nil {
				keys = append(keys, key)
			}
			recs[key] = append(recs[key], rec)
		}
	}
	out := make([]*mapreduce.Segment, maxSize)
	for i := range out {
		out[i] = &mapreduce.Segment{ID: i}
		for k, key := range keys {
			n := min(1+(i+k)%maxSize, len(recs[key]))
			out[i].Records = append(out[i].Records, recs[key][:n]...)
			recs[key] = recs[key][n:]
		}
	}
	return out
}

// TestEventGroupBoundary pins the two bundle forms at their edge on all
// 12 queries: every (mapper, key) group is cut to each size from one
// event to one past the largest group that ships its events, so groups
// of events, summaries and the boundary between them reach every fold
// site — the reducer, a serve session, a session resumed from a frozen
// prefix, a StreamComposer per key, and a job mapped on a loopback
// worker — and each answers the sequential digest.
func TestEventGroupBoundary(t *testing.T) {
	datasets := smallDatasets(1)
	eps := chaosWorkers(t, 1)
	for _, spec := range All() {
		t.Run(spec.ID, func(t *testing.T) {
			run := serve.Lookup(spec.ID)
			r := run.(interface {
				keyOf([]byte) (string, bool)
				eventCap(*testing.T) int
			})
			maxEvents := r.eventCap(t)
			if maxEvents < 2 {
				t.Fatalf("groups of up to %d events ship as events", maxEvents)
			}
			segs := cutGroups(datasets[spec.Dataset], maxEvents+1, r.keyOf)
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatal(err)
			}
			conf := mapreduce.Config{NumReducers: 3}
			reducer, err := spec.Symple(segs, conf)
			if err != nil {
				t.Fatalf("reducer fold: %v", err)
			}
			pool, err := cluster.NewPool(ClusterSpec(spec.ID, conf), eps)
			if err != nil {
				t.Fatal(err)
			}
			conf.RemoteMap = pool
			worker, err := spec.Symple(segs, conf)
			pool.Close()
			if err != nil {
				t.Fatalf("worker map: %v", err)
			}
			bundles := segmentBundles(t, spec.ID, segs)
			sizes := map[int]bool{} // groups shipped as events, by size; 0: summaries
			for _, b := range bundles {
				for _, v := range b {
					if v[0] != 0 {
						sizes[0] = true
					} else {
						sizes[int(v[1])] = true
					}
				}
			}
			for n := 0; n <= maxEvents; n++ {
				if !sizes[n] {
					t.Errorf("no group shipped as %d events (0: as summaries)", n)
				}
			}
			session := sessionFold(t, run, bundles)
			resumed := resumedFold(t, run, bundles)
			composer, _, _ := typedSites[spec.ID](t, run, bundles)
			for _, got := range []struct {
				site    string
				digest  uint64
				results int
			}{
				{"reducer", reducer.Digest, reducer.NumResults},
				{"loopback worker", worker.Digest, worker.NumResults},
				{"serve session", session.Digest, session.NumResults},
				{"resumed session", resumed.Digest, resumed.NumResults},
				{"stream composer", composer.Digest, composer.NumResults},
			} {
				if got.digest != seq.Digest || got.results != seq.NumResults {
					t.Errorf("%s fold: digest %016x (%d results) != sequential %016x (%d)",
						got.site, got.digest, got.results, seq.Digest, seq.NumResults)
				}
			}
		})
	}
}
