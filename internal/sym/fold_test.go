package sym

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/wire"
)

// partialSummary returns chunk's Max summary with every path admitting
// the concrete value v removed: applying it to a state holding v must
// fail with ErrNoPath.
func partialSummary(t *testing.T, chunk []int64, v int64) *Summary[*intState] {
	t.Helper()
	sums := maxChunkSummaries(t, chunk)
	if len(sums) != 1 {
		t.Fatalf("%d summaries for one short chunk", len(sums))
	}
	s := sums[0]
	at := wrapState(&intState{V: NewSymInt(v)})
	kept := s.ps[:0]
	for _, p := range s.ps {
		if !admitsFields(p.fs, at.fs) {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 || len(kept) == s.NumPaths() {
		t.Fatalf("chunk %v: no path to drop for state %d", chunk, v)
	}
	s.ps = kept
	return s
}

// TestFoldAddFailureLeavesPrefix: a bundle whose k-th summary fails to
// apply returns the error and leaves State() equal to the pre-Add
// prefix, and the fold stays usable.
func TestFoldAddFailureLeavesPrefix(t *testing.T) {
	f := NewFolder(newSchema(newIntState(math.MinInt64)))
	st := f.NewState()
	if err := f.Add(st, maxChunkSummaries(t, []int64{2, 1})); err != nil {
		t.Fatal(err)
	}
	if got := st.State().V.Get(); got != 2 {
		t.Fatalf("prefix = %d, want 2", got)
	}
	// 9 then 3 apply; the third summary has no path for the state 9.
	bundle := append(maxChunkSummaries(t, []int64{9}), maxChunkSummaries(t, []int64{3})...)
	bundle = append(bundle, partialSummary(t, []int64{5}, 9))
	err := f.Add(st, bundle)
	if !errors.Is(err, ErrNoPath) || !strings.Contains(err.Error(), "3/3") {
		t.Fatalf("Add error = %v, want ErrNoPath naming summary 3/3", err)
	}
	if got := st.State().V.Get(); got != 2 {
		t.Fatalf("failed Add moved the prefix to %d, want 2", got)
	}
	if err := f.Add(st, maxChunkSummaries(t, []int64{7})); err != nil {
		t.Fatal(err)
	}
	if got := st.State().V.Get(); got != 7 {
		t.Fatalf("prefix after recovery = %d, want 7", got)
	}
}

// TestFoldAddBundle: Fold of one bundle onto a state decodes and folds
// in one call,
// and rejects a corrupt bundle before applying anything.
func TestFoldAddBundle(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	f := NewFolder(sc)
	st := f.NewState()
	sums := append(maxChunkSummaries(t, []int64{4, 8}), maxChunkSummaries(t, []int64{6})...)
	data := EncodeSummaryBundle(sums)
	if err := f.Fold(st, st, data); err != nil {
		t.Fatal(err)
	}
	if got := st.State().V.Get(); got != 8 {
		t.Fatalf("state = %d, want 8", got)
	}
	if err := f.Fold(st, st, data[:len(data)-1]); err == nil {
		t.Fatal("truncated bundle accepted")
	}
	if got := st.State().V.Get(); got != 8 {
		t.Fatalf("corrupt bundle moved the state to %d", got)
	}
}

// TestApplyAllBorrows: the non-consuming convenience leaves both the
// start state and the summaries intact, so a list can be applied twice.
func TestApplyAllBorrows(t *testing.T) {
	sums := append(maxChunkSummaries(t, []int64{4, 8}), maxChunkSummaries(t, []int64{6})...)
	start := newIntState(5)()
	for round := 0; round < 2; round++ {
		out, err := ApplyAll(start, sums)
		if err != nil {
			t.Fatal(err)
		}
		if out.V.Get() != 8 || start.V.Get() != 5 {
			t.Fatalf("round %d: out %d (want 8), start %d (want 5)", round, out.V.Get(), start.V.Get())
		}
	}
}

// chunkSums runs update over one chunk from a fresh symbolic start, the
// way a mapper does for one (mapper, key) pair.
func chunkSums[S State, E any](t testing.TB, sc *Schema[S], update func(*Ctx, S, E), events []E) []*Summary[S] {
	t.Helper()
	x := NewSchemaExecutor(sc, update, DefaultOptions())
	if err := x.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sums
}

// stateBytes is the canonical encoding of a state, field by field: two
// states are the same state iff these are equal.
func stateBytes[S State](st *FoldState[S]) []byte {
	e := wire.NewEncoder(64)
	for _, f := range st.fs {
		f.Encode(e)
	}
	return e.Bytes()
}

// int64Codec is the event codec of the tests' int64 events.
var int64Codec = struct {
	encode func(*wire.Encoder, int64)
	decode func(*wire.Decoder) (int64, error)
}{
	func(e *wire.Encoder, v int64) { e.Varint(v) },
	func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
}

// eventSchema compiles newState's plan with the int64 event codec, so a
// small group ships its events.
func eventSchema[S State](tb testing.TB, newState func() S, update func(*Ctx, S, int64)) *Schema[S] {
	tb.Helper()
	sc, err := NewEventSchema(newState, update, int64Codec.encode, int64Codec.decode)
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

// eventBundle is the bundle of a group holding the int64 events evs,
// however many: past maxEventGroup it is one no exec site writes.
func eventBundle(evs ...int64) []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(0)
	e.Uvarint(uint64(len(evs)))
	for _, ev := range evs {
		e.Varint(ev)
	}
	return e.Bytes()
}

// copyOfState returns a new state of site f holding st's contents.
func copyOfState[S State](f *Folder[S], st *FoldState[S]) *FoldState[S] {
	c := f.NewState()
	for i, v := range c.fs {
		v.CopyFrom(st.fs[i])
	}
	return c
}

// sessionChunk is a random event chunk for sessionUpdate: values close
// enough that the withinTen predicate goes both ways.
func sessionChunk(r *rand.Rand) []int64 {
	evs := make([]int64, 1+r.Intn(6))
	for i := range evs {
		evs[i] = int64(r.Intn(40))
	}
	return evs
}

// failEvent is the event failingSession aborts on.
const failEvent = -1

// failingSession is sessionUpdate aborting, after it has written the
// state, on failEvent.
func failingSession(ctx *Ctx, s *predState, e int64) {
	sessionUpdate(ctx, s, e)
	if e == failEvent {
		fail(ErrOverflow)
	}
}

// restartedBundle is the summary bundle of a key that restarted: under a
// live-path cap of 1 the session pattern's forks close a summary each.
func restartedBundle(t testing.TB, sc *Schema[*predState], evs []int64) []byte {
	t.Helper()
	x := NewSchemaExecutor(sc, sessionUpdate, Options{MaxLivePaths: 1, DisableMerging: true})
	if err := x.FeedBatch(evs); err != nil {
		t.Fatal(err)
	}
	sums, err := x.Finish()
	if err != nil || len(sums) < 2 {
		t.Fatalf("restart over %v: %d summaries, %v", evs, len(sums), err)
	}
	return EncodeSummaryBundle(sums)
}

// foldGroup is one key's reduce group: its bundles, in fold order.
type foldGroup struct {
	name    string
	bundles [][]byte
}

// mixedGroups are the group shapes a reduce folds in one call, over fresh
// random chunks of the session pattern.
func mixedGroups(t testing.TB, r *rand.Rand, sc *Schema[*predState]) []foldGroup {
	ev := func() []byte { return eventBundle(sessionChunk(r)...) }
	sum := func() []byte { return EncodeSummaryBundle(chunkSums(t, sc, sessionUpdate, sessionChunk(r))) }
	return []foldGroup{
		{"events only", [][]byte{ev(), ev(), ev()}},
		{"summaries only", [][]byte{sum(), sum(), sum()}},
		{"a summary after events", [][]byte{ev(), ev(), sum()}},
		{"events after a summary", [][]byte{sum(), ev(), ev()}},
		{"a restarted key", [][]byte{ev(), restartedBundle(t, sc, append(sessionChunk(r), 99)), ev()}},
	}
}

// TestFoldGroup: a group folded in one call is, byte for byte, its
// bundles folded one by one — in place and into another state, from the
// initial state and from a reached one — and a fold from a state never
// writes it.
func TestFoldGroup(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sc := eventSchema(t, newPredState, sessionUpdate)
	site, ref := NewFolder(sc), NewFolder(sc)
	for trial := 0; trial < 100; trial++ {
		src := site.NewState()
		if trial%2 == 1 {
			if err := site.Fold(src, src, EncodeSummaryBundle(chunkSums(t, sc, sessionUpdate, sessionChunk(r)))); err != nil {
				t.Fatal(err)
			}
		}
		frozen := bytes.Clone(stateBytes(src))
		for _, g := range mixedGroups(t, r, sc) {
			want := copyOfState(ref, src)
			for _, b := range g.bundles {
				if err := ref.Fold(want, want, b); err != nil {
					t.Fatal(err)
				}
			}
			into, inPlace := site.NewState(), copyOfState(ref, src)
			if err := site.Fold(into, src, g.bundles...); err != nil {
				t.Fatalf("trial %d, %s: %v", trial, g.name, err)
			}
			if err := site.Fold(inPlace, inPlace, g.bundles...); err != nil {
				t.Fatalf("trial %d, %s in place: %v", trial, g.name, err)
			}
			for _, got := range []*FoldState[*predState]{into, inPlace} {
				if !bytes.Equal(stateBytes(got), stateBytes(want)) {
					t.Fatalf("trial %d, %s: one call folds to another state than one bundle at a time", trial, g.name)
				}
			}
			if !bytes.Equal(stateBytes(src), frozen) {
				t.Fatalf("trial %d, %s: the fold wrote the state it folded from", trial, g.name)
			}
		}
	}
}

// TestFoldBundleErrorContract: a bundle whose second summary admits no
// path, and a group of events whose Update fails after writing at event
// i of n, each leave the state byte-equal to before the call, and the
// next good bundle folds as if the bad one never arrived — on the
// reducer's shape (one state, Reset per key) and the session's (a state
// per key); a corrupt bundle — summaries; or events, counted 0 or past
// maxEventGroup, cut anywhere, or trailed by a byte — is rejected with
// nothing applied; and a group of every mixed shape with such a bundle at
// any position, failing or corrupt, is rejected whole.
func TestFoldBundleErrorContract(t *testing.T) {
	for _, shape := range []string{"reset per key", "state per key"} {
		t.Run(shape, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			sc := eventSchema(t, newPredState, failingSession)
			site, ref := NewFolder(sc), NewFolder(sc)
			keys := map[string]*FoldState[*predState]{}
			one := site.NewState()
			for trial := 0; trial < 200; trial++ {
				var st *FoldState[*predState]
				if shape == "reset per key" {
					st = one
					site.Reset(st)
				} else {
					key := string(rune('a' + r.Intn(5)))
					if keys[key] == nil {
						keys[key] = site.NewState()
					}
					st = keys[key]
				}
				good := EncodeSummaryBundle(chunkSums(t, sc, sessionUpdate, sessionChunk(r)))
				if err := site.Fold(st, st, good); err != nil {
					t.Fatal(err)
				}
				before := bytes.Clone(stateBytes(st))

				// head applies; tail has lost the path admitting head(st).
				head := chunkSums(t, sc, sessionUpdate, sessionChunk(r))
				mid := copyOfState(ref, st)
				if err := ref.Add(mid, head); err != nil {
					t.Fatal(err)
				}
				tail := chunkSums(t, sc, sessionUpdate, sessionChunk(r))
				last := tail[len(tail)-1]
				last.ps = slices.DeleteFunc(last.ps, func(p *pathState[*predState]) bool {
					return admitsFields(p.fs, mid.fs)
				})
				if len(last.ps) == 0 {
					continue // a one-path summary admits everything: nothing to drop
				}
				bad := EncodeSummaryBundle(append(head, tail...))
				if err := site.Fold(st, st, bad); !errors.Is(err, ErrNoPath) {
					t.Fatalf("trial %d: bad bundle: err %v; want ErrNoPath", trial, err)
				}
				if got := stateBytes(st); !bytes.Equal(got, before) {
					t.Fatalf("trial %d: failed bundle moved the state:\n got %x\nwant %x", trial, got, before)
				}
				if err := site.Fold(st, st, bad[:len(bad)-1]); !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("trial %d: truncated bundle: err %v, want ErrCorrupt", trial, err)
				}
				if err := site.Fold(st, st, append(bytes.Clone(good), 0)); !errors.Is(err, wire.ErrCorrupt) {
					t.Fatalf("trial %d: trailing byte: err %v, want ErrCorrupt", trial, err)
				}
				// Update fails at event i of n, after the events before it
				// have run on the copy.
				evs := sessionChunk(r)
				failing := slices.Clone(evs)
				failing[r.Intn(len(failing))] = failEvent
				if err := site.Fold(st, st, eventBundle(failing...)); !errors.Is(err, ErrOverflow) {
					t.Fatalf("trial %d: events %v: err %v, want ErrOverflow", trial, failing, err)
				}
				ev := eventBundle(evs...)
				corrupt := [][]byte{
					{0, 0}, // a group of no events
					eventBundle(make([]int64, maxEventGroup+1)...),
					append(bytes.Clone(ev), 0),
				}
				for cut := range ev { // cut anywhere: the count, inside any event
					corrupt = append(corrupt, ev[:cut])
				}
				for _, data := range corrupt {
					if err := site.Fold(st, st, data); !errors.Is(err, wire.ErrCorrupt) {
						t.Fatalf("trial %d: event bundle %x: err %v, want ErrCorrupt", trial, data, err)
					}
				}
				if got := stateBytes(st); !bytes.Equal(got, before) {
					t.Fatalf("trial %d: corrupt bundle or failed event moved the state", trial)
				}

				// Each group shape with a bad bundle at each position: cut,
				// trailed by a byte, failing events, or a summary that has
				// lost the path admitting the state the group reached there.
				for _, g := range mixedGroups(t, r, sc) {
					for i := range g.bundles {
						mid := copyOfState(ref, st)
						if err := ref.Fold(mid, mid, g.bundles[:i]...); err != nil {
							t.Fatal(err)
						}
						lost := chunkSums(t, sc, sessionUpdate, sessionChunk(r))
						lost[0].ps = slices.DeleteFunc(lost[0].ps, func(p *pathState[*predState]) bool {
							return admitsFields(p.fs, mid.fs)
						})
						bads := [][]byte{g.bundles[i][:len(g.bundles[i])-1], append(bytes.Clone(g.bundles[i]), 0), eventBundle(3, failEvent)}
						if len(lost[0].ps) > 0 {
							bads = append(bads, EncodeSummaryBundle(lost))
						}
						for _, bad := range bads {
							group := slices.Clone(g.bundles)
							group[i] = bad
							if err := site.Fold(st, st, group...); err == nil {
								t.Fatalf("trial %d, %s: bad bundle %d/%d %x accepted", trial, g.name, i+1, len(group), bad)
							}
							if got := stateBytes(st); !bytes.Equal(got, before) {
								t.Fatalf("trial %d, %s: bad bundle %d/%d moved the state", trial, g.name, i+1, len(group))
							}
						}
					}
				}

				// The next good bundle lands where it would have without
				// the failures: fold it on a copy taken before them.
				want := copyOfState(ref, st)
				next := EncodeSummaryBundle(chunkSums(t, sc, sessionUpdate, sessionChunk(r)))
				if trial%2 == 0 {
					next = ev
				}
				if err := ref.Fold(want, want, next); err != nil {
					t.Fatal(err)
				}
				if err := site.Fold(st, st, next); err != nil {
					t.Fatal(err)
				}
				if got := stateBytes(st); !bytes.Equal(got, stateBytes(want)) {
					t.Fatalf("trial %d: state after recovery differs from the fold without the bad bundle", trial)
				}
			}
		})
	}
}

// checkSiteAliasing folds random traffic for several keys through one
// site and checks, after every bundle, that no state the site handed
// out changed except the one folded onto: every bundle is decoded over
// the storage of the last one in the site's containers, and CopyFrom
// shares slices with them; a third of the bundles are events, which run
// Update on a copy of the state sharing its slices, and a quarter of the
// folds are a group — a summary bundle then events, whose Update runs on
// the spare the summary step just wrote. One key's state is frozen early
// and from then on only folded *from*: it must not change either. elems reads a state's vector contents (what a
// Result would retain).
func checkSiteAliasing[S State](t *testing.T, newState func() S, update func(*Ctx, S, int64),
	chunk func(*rand.Rand) []int64, elems func(S) []int64) {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	sc := eventSchema(t, newState, update)
	site := NewFolder(sc)
	const nkeys = 6
	states := make([]*FoldState[S], nkeys)
	want := make([][]byte, nkeys)  // stateBytes after the key's last fold
	held := make([][]int64, nkeys) // elems as returned then…
	copyOf := make([][]int64, nkeys)
	bundles := make([][][]byte, nkeys)
	for k := range states {
		states[k] = site.NewState()
		want[k] = bytes.Clone(stateBytes(states[k]))
	}
	scratch := site.NewState()
	const frozen = 0 // states[frozen] is only read once step 40 has passed
	for step := 0; step < 400; step++ {
		k := r.Intn(nkeys)
		var sums []*Summary[S]
		for c := 1 + r.Intn(2); c > 0; c-- {
			sums = append(sums, chunkSums(t, sc, update, chunk(r))...)
		}
		group := [][]byte{EncodeSummaryBundle(sums)}
		if r.Intn(3) == 0 {
			group[0] = eventBundle(chunk(r)...)
		} else if r.Intn(3) == 0 {
			group = append(group, eventBundle(chunk(r)...))
		}
		if k == frozen && step >= 40 {
			// A resumed session's shape: fold from the frozen prefix
			// into a state of the job's own.
			if err := site.Fold(scratch, states[frozen], group...); err != nil {
				t.Fatal(err)
			}
		} else if r.Intn(4) == 0 {
			// Other keys' traffic through the reducer's shape.
			site.Reset(scratch)
			if err := site.Fold(scratch, scratch, group...); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := site.Fold(states[k], states[k], group...); err != nil {
				t.Fatal(err)
			}
			bundles[k] = append(bundles[k], group...)
			want[k] = bytes.Clone(stateBytes(states[k]))
			held[k] = elems(states[k].State())
			copyOf[k] = slices.Clone(held[k])
		}
		for j := range states {
			if got := stateBytes(states[j]); !bytes.Equal(got, want[j]) {
				t.Fatalf("step %d: key %d's state changed while key %d folded", step, j, k)
			}
			if !slices.Equal(held[j], copyOf[j]) {
				t.Fatalf("step %d: elements taken from key %d were overwritten: %v, were %v", step, j, held[j], copyOf[j])
			}
		}
	}
	// And each state is the fold of its own bundles on a site of its own.
	for k, st := range states {
		solo := NewFolder(sc)
		ref := solo.NewState()
		for _, data := range bundles[k] {
			if err := solo.Fold(ref, ref, data); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(stateBytes(st), stateBytes(ref)) {
			t.Fatalf("key %d: shared-site state differs from a private site's", k)
		}
	}
}

// zooState holds one of every stock Value the other two shapes lack —
// SymBool, SymEnum, a SymStruct of scalars, a SymVector of strings —
// beside a second SymPred and SymVector, all driven by one event stream.
type zooState struct {
	Open  SymBool
	Kind  SymEnum
	Lo    SymInt
	Hi    SymInt
	Range SymStruct
	Last  SymPred[int64]
	Tags  SymVector[string]
	Seen  SymVector[int64]
}

func (s *zooState) Fields() []Value {
	return []Value{&s.Open, &s.Kind, &s.Range, &s.Last, &s.Tags, &s.Seen}
}

func newZooState() *zooState {
	s := &zooState{
		Open: NewSymBool(false), Kind: NewSymEnum(4, 0), Lo: NewSymInt(0), Hi: NewSymInt(0),
		Last: NewSymPred(withinTen, Int64Codec(), 0),
		Tags: NewSymVector(StringCodec()), Seen: NewSymVector(Int64Codec()),
	}
	s.Range = NewSymStruct(&s.Lo, &s.Hi)
	return s
}

func zooUpdate(ctx *Ctx, s *zooState, e int64) {
	if s.Open.IsTrue(ctx) {
		s.Hi.Add(e)
		if s.Kind.Eq(ctx, e%4) {
			s.Tags.Push("same")
			s.Open.Set(false)
		}
	} else {
		if s.Lo.Lt(ctx, e) {
			s.Lo.Set(e)
		}
		s.Open.Set(true)
		s.Tags.Push("open")
	}
	if !s.Last.EvalPred(ctx, e) {
		s.Seen.Push(e)
	}
	s.Last.SetValue(e)
	s.Kind.Set(e % 4)
}

func TestFoldSiteReuseNeverAliases(t *testing.T) {
	t.Run("SymPred+SymIntVector", func(t *testing.T) {
		checkSiteAliasing(t, newPredState, sessionUpdate, sessionChunk,
			func(s *predState) []int64 { return s.Out.Elems() })
	})
	t.Run("SymVector+SymIntVector", func(t *testing.T) {
		checkSiteAliasing(t, newLogState, logUpdate, sessionChunk,
			func(s *logState) []int64 { return s.Seen.Elems() })
	})
	t.Run("SymBool+SymEnum+SymStruct+SymVector[string]", func(t *testing.T) {
		checkSiteAliasing(t, newZooState, zooUpdate, sessionChunk,
			func(s *zooState) []int64 { return s.Seen.Elems() })
	})
}

// TestFoldResultOutlivesReset: SymVector.Elems hands out the backing
// slice and queries' Result funcs keep it; folding the next key on the
// same state — longer vectors, several bundles, events appending to what
// a summary step just built — must not write it.
func TestFoldResultOutlivesReset(t *testing.T) {
	sc := eventSchema(t, newLogState, logUpdate)
	site := NewFolder(sc)
	st := site.NewState()
	fold := func(chunks ...[]int64) {
		site.Reset(st)
		for _, c := range chunks {
			if err := site.Fold(st, st, EncodeSummaryBundle(chunkSums(t, sc, logUpdate, c))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fold([]int64{3, 1}, []int64{4, 1, 5})
	a := st.State().Seen.Elems()
	if want := []int64{3, 1, 4, 1, 5}; !slices.Equal(a, want) {
		t.Fatalf("key A = %v, want %v", a, want)
	}
	keep := slices.Clone(a)
	fold([]int64{9, 2, 6, 5, 3, 5}, []int64{8, 9, 7, 9, 3, 2, 3, 8}, []int64{4, 6})
	if b := st.State().Seen.Elems(); len(b) != 16 {
		t.Fatalf("key B has %d elements, want 16", len(b))
	}
	if !slices.Equal(a, keep) {
		t.Fatalf("key A's result changed under key B's fold: %v, was %v", a, keep)
	}

	// A key with a single bundle: its vector is the decoded path's
	// elements and nothing before them, and it must still be an array of
	// the state's own — the next bundle is decoded over the path's.
	fold([]int64{7, 7, 2})
	c := st.State().Seen.Elems()
	keep = slices.Clone(c)
	fold([]int64{1, 1, 1})
	if want := []int64{7, 7, 2}; !slices.Equal(c, want) || !slices.Equal(keep, want) {
		t.Fatalf("a single-bundle key's result changed under the next key's decode: %v, was %v", c, keep)
	}

	// A group whose events run Update on the spare a summary step just
	// wrote: they append to the array Concretize built, the state's own.
	group := func(sum []int64, evs ...int64) {
		site.Reset(st)
		if err := site.Fold(st, st, EncodeSummaryBundle(chunkSums(t, sc, logUpdate, sum)), eventBundle(evs...)); err != nil {
			t.Fatal(err)
		}
	}
	group([]int64{6, 6}, 4, 2)
	d := st.State().Seen.Elems()
	if want := []int64{6, 6, 4, 2}; !slices.Equal(d, want) {
		t.Fatalf("key D = %v, want %v", d, want)
	}
	if !slices.Equal(c, keep) {
		t.Fatalf("key C's result changed under key D's group: %v, was %v", c, keep)
	}
	keep = slices.Clone(d)
	group([]int64{1, 2, 3}, 8, 8, 8, 8)
	fold([]int64{5})
	if !slices.Equal(d, keep) {
		t.Fatalf("key D's result changed under the next keys' folds: %v, was %v", d, keep)
	}
}

// t1Shape is queries.T1's state: two of its three scalars decide a
// branch, and the vector takes a symbolic element.
type t1Shape struct {
	Done  SymBool
	Clean SymInt
	Run   SymInt
	Out   SymIntVector
}

func (s *t1Shape) Fields() []Value { return []Value{&s.Done, &s.Clean, &s.Run, &s.Out} }

func newT1Shape() *t1Shape {
	return &t1Shape{Done: NewSymBool(false), Clean: NewSymInt(0), Run: NewSymInt(0)}
}

func t1ShapeUpdate(ctx *Ctx, s *t1Shape, spam int64) {
	if s.Done.IsTrue(ctx) {
		return
	}
	if spam == 1 {
		s.Run.Inc()
		if s.Run.Eq(ctx, 5) {
			s.Out.PushInt(&s.Clean)
			s.Done.Set(true)
		}
	} else {
		s.Run.Set(0)
		s.Clean.Inc()
	}
}

// TestFoldAllocCeiling: on a warm site a fold of the state it last Reset
// allocates nothing — per bundle, per summary, per path, per event or
// per key: the stock Values decode into the storage the site's
// containers kept, and the vectors Concretize builds and an event's
// Update pushes grow in the storage the site owns and Reset reclaims;
// and however many folds, the site holds the containers it started with.
func TestFoldAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	check := func(name string, paths int, fold func() int, allocated func() int64) {
		t.Helper()
		if got := fold(); got != paths {
			t.Fatalf("%s: bundle has %d paths, want %d", name, got, paths)
		}
		base := allocated()
		if got := testing.AllocsPerRun(100, func() { fold() }); got != 0 {
			t.Errorf("%s: %v allocations per fold on a warm site, want none", name, got)
		}
		for i := 0; i < 10000; i++ {
			fold()
		}
		if got := allocated(); got != base {
			t.Errorf("%s: the schema built %d containers across 10000 folds", name, got-base)
		}
	}
	{
		sc := newSchema(newPredState)
		site := NewFolder(sc)
		st := site.NewState()
		// One session, like most of B3's (mapper, user) chunks: the path
		// that continues the previous session pushes nothing, the one
		// that closes it pushes the symbolic count.
		sums := chunkSums(t, sc, sessionUpdate, []int64{50, 55})
		data := EncodeSummaryBundle(sums)
		check("B3 shape", 2, func() int {
			site.Reset(st)
			if err := site.Fold(st, st, data); err != nil {
				t.Fatal(err)
			}
			return sums[0].NumPaths()
		}, sc.Allocated)
	}
	{
		// Most of B3's groups: one to three events, shipped as themselves,
		// applied by Update on a copy — where the first closes the state's
		// open session and so pushes one element, into the site's storage.
		sc := eventSchema(t, newPredState, sessionUpdate)
		site := NewFolder(sc)
		st := site.NewState()
		data := eventBundle(50, 55, 58)
		check("B3 events", 1, func() int {
			site.Reset(st)
			if err := site.Fold(st, st, data); err != nil {
				t.Fatal(err)
			}
			return 1
		}, sc.Allocated)
	}
	{
		// B3's usual reduce group: five mappers' one-event bundles, each
		// opening a session and so pushing. One call copies the state into
		// a spare once and its pushes grow one vector, in place at the end
		// of the site's storage.
		sc := eventSchema(t, newPredState, sessionUpdate)
		site := NewFolder(sc)
		st := site.NewState()
		group := [][]byte{eventBundle(50), eventBundle(75), eventBundle(100), eventBundle(125), eventBundle(150)}
		check("B3 group of five events", 1, func() int {
			site.Reset(st)
			if err := site.Fold(st, st, group...); err != nil {
				t.Fatal(err)
			}
			if n := st.State().Out.Len(); n != 5 {
				t.Fatalf("group pushed %d sessions, want 5", n)
			}
			return 1
		}, sc.Allocated)
	}
	for n := 1; n <= maxEventGroup; n++ {
		sc := eventSchema(t, newIntState(math.MinInt64), maxUpdate)
		site := NewFolder(sc)
		st := site.NewState()
		data := eventBundle(slices.Repeat([]int64{-3, 9}, n)[:n]...)
		check(fmt.Sprintf("a group of %d events", n), 1, func() int {
			site.Reset(st)
			if err := site.Fold(st, st, data); err != nil {
				t.Fatal(err)
			}
			return 1
		}, sc.Allocated)
	}
	{
		// R3's reduce group: eight mappers' summaries of a gap log, each
		// path about 64 concrete elements behind one symbolic head (the
		// gap that opens the chunk). Each summary step concretizes into
		// the site's storage, values and symbolic slots alike, and the
		// bundles decode into the site's containers in place.
		sc := newSchema(func() *gapLog { return &gapLog{Last: NewSymInt(math.MaxInt64 / 2)} })
		site := NewFolder(sc)
		st := site.NewState()
		var group [][]byte
		paths := 0
		for c := int64(0); c < 8; c++ {
			stream := make([]int64, 32)
			for i := range stream {
				stream[i] = (c*32 + int64(i)) * 100
			}
			sums := chunkSums(t, sc, gapUpdate, stream)
			if len(sums) != 1 || !slices.ContainsFunc(sums[0].Paths(), func(p *gapLog) bool {
				return p.Out.Len() == 64 && len(p.Out.slots) == 1 && p.Out.slots[0].at == 0
			}) {
				t.Fatalf("gap log chunk %d: no path of 64 elements behind one symbolic head", c)
			}
			paths += sums[0].NumPaths()
			group = append(group, EncodeSummaryBundle(sums))
		}
		check("R3 group of eight summaries", 2*8, func() int {
			site.Reset(st)
			if err := site.Fold(st, st, group...); err != nil {
				t.Fatal(err)
			}
			if n := st.State().Out.Len(); n != 2*(8*32-1) {
				t.Fatalf("group folded to %d elements, want %d", n, 2*(8*32-1))
			}
			return paths
		}, sc.Allocated)

		// One path's vector alone, with symbolic slots past the head:
		// Decode refills a warm receiver's values and side list in place.
		var v SymIntVector
		for i := int64(0); i < 64; i++ {
			if i%20 == 0 {
				v.pushSym(int(i%3), 2, i)
			}
			v.Push(i)
		}
		var e wire.Encoder
		v.Encode(&e)
		var recv SymIntVector
		decode := func() {
			if err := recv.Decode(wire.NewDecoder(e.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		if got := testing.AllocsPerRun(100, decode); got != 0 || !recv.SameTransfer(&v) {
			t.Errorf("%v allocations decoding a vector of %d elements, %d symbolic, into a warm receiver; want none",
				got, v.Len(), len(v.slots))
		}
	}
	{
		sc := newSchema(newT1Shape)
		site := NewFolder(sc)
		st := site.NewState()
		sums := chunkSums(t, sc, t1ShapeUpdate, []int64{0, 1, 1, 1, 1, 1, 0})
		data := EncodeSummaryBundle(sums)
		check("T1 shape", sums[0].NumPaths(), func() int {
			site.Reset(st)
			if err := site.Fold(st, st, data); err != nil {
				t.Fatal(err)
			}
			return sums[0].NumPaths()
		}, sc.Allocated)
	}
}

// TestFoldAddBundleFrom: Fold from one state into another leaves the
// source exactly as it was — whether the bundle has summaries, is an
// event, or has a summary that fails to apply — so a frozen state can be
// the source of any number of folds.
func TestFoldAddBundleFrom(t *testing.T) {
	f := NewFolder(eventSchema(t, newIntState(math.MinInt64), maxUpdate))
	src := f.NewState()
	if err := f.Add(src, maxChunkSummaries(t, []int64{5})); err != nil {
		t.Fatal(err)
	}
	var before wire.Encoder
	src.Encode(&before)
	check := func(step string, dst *FoldState[*intState], want int64) {
		t.Helper()
		if got := dst.State().V.Get(); got != want {
			t.Errorf("%s: dst = %d, want %d", step, got, want)
		}
		var after wire.Encoder
		src.Encode(&after)
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s wrote the source state", step)
		}
	}

	two := append(maxChunkSummaries(t, []int64{3}), maxChunkSummaries(t, []int64{8})...)
	dst := f.NewState()
	if err := f.Fold(dst, src, EncodeSummaryBundle(two)); err != nil {
		t.Fatal(err)
	}
	check("two summaries", dst, 8)

	dst = f.NewState()
	if err := f.Fold(dst, src, eventBundle(2)); err != nil {
		t.Fatal(err)
	}
	check("an event", dst, 5)
	// The copy is dst's own: folding onto it leaves the source alone too.
	if err := f.Fold(dst, dst, EncodeSummaryBundle(maxChunkSummaries(t, []int64{6}))); err != nil {
		t.Fatal(err)
	}
	check("fold onto the copy", dst, 6)

	dst = f.NewState()
	bad := append(maxChunkSummaries(t, []int64{7}), partialSummary(t, []int64{4}, 7))
	if err := f.Fold(dst, src, EncodeSummaryBundle(bad)); !errors.Is(err, ErrNoPath) {
		t.Fatalf("error = %v, want ErrNoPath", err)
	}
	check("failed fold", dst, math.MinInt64)
}

// TestFoldNoBundles: a group of no bundles folds to the state it starts
// from, and folding it from a state into another leaves the source be.
func TestFoldNoBundles(t *testing.T) {
	f := NewFolder(eventSchema(t, newIntState(math.MinInt64), maxUpdate))
	src, dst := f.NewState(), f.NewState()
	if err := f.Fold(src, src, eventBundle(4)); err != nil {
		t.Fatal(err)
	}
	if err := f.Fold(dst, src); err != nil || dst.State().V.Get() != 4 || src.State().V.Get() != 4 {
		t.Fatalf("Fold of nothing: %v, dst %d, src %d; want both 4", err, dst.State().V.Get(), src.State().V.Get())
	}
	if err := f.Fold(src, src); err != nil || src.State().V.Get() != 4 {
		t.Fatalf("Fold of nothing in place: %v, state %d", err, src.State().V.Get())
	}
}
