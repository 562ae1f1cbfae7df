package queries

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
	"repro/internal/wire"
)

// segmentParts is segmentBundles as the service holds them: one flat part
// per segment, whose keys reach the session as bytes aliasing the part.
func segmentParts(t *testing.T, id string, segs []*mapreduce.Segment) []*serve.Part {
	t.Helper()
	var parts []*serve.Part
	for _, bundles := range segmentBundles(t, id, segs) {
		p := &serve.Part{}
		for key, b := range bundles {
			p.Add(key, b)
		}
		parts = append(parts, p)
	}
	return parts
}

func newSession(t *testing.T, id string) serve.Session {
	t.Helper()
	sess, err := serve.Lookup(id).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestOverlayResultMatchesSequential: a prefix keeps its sorted result
// lines and a session over it formats only what it owns — and however the
// fold is cut into prefixes and overlays, the answer after i segments is
// Spec.Sequential's over those i, digest and count. For all 12 queries,
// seeded random walks down the dataset: before each append the session
// may freeze and go on, hand its prefix to a fresh session that resumes
// from it, or be asked again with nothing new (a tail refresh); after
// each append it is asked twice. A session that folds everything with no
// prefix at all — the same code over the empty base — closes each walk.
func TestOverlayResultMatchesSequential(t *testing.T) {
	datasets := smallDatasets(8)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			segs := datasets[spec.Dataset]
			parts := segmentParts(t, spec.ID, segs)
			want := make([]serve.Result, len(segs)+1)
			for i := range want {
				seq, err := spec.Sequential(segs[:i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = serve.Result{Digest: seq.Digest, NumResults: seq.NumResults}
			}
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				sess, walk := newSession(t, spec.ID), ""
				check := func(i int) {
					t.Helper()
					if got, err := sess.Result(); err != nil || got != want[i] {
						t.Fatalf("seed %d, %s: after %d segments %+v (%v), sequential %+v", seed, walk, i, got, err, want[i])
					}
				}
				for i, part := range parts {
					switch rng.Intn(4) {
					case 0:
						sess.Freeze()
						walk += "freeze "
					case 1:
						next := newSession(t, spec.ID)
						next.Resume(sess.Freeze())
						sess = next
						walk += "resume "
					case 2:
						check(i)
						walk += "ask "
					}
					if err := sess.FoldPart(part); err != nil {
						t.Fatal(err)
					}
					walk += "fold "
					check(i + 1)
					check(i + 1)
				}
				fresh := newSession(t, spec.ID)
				for _, part := range parts {
					if err := fresh.FoldPart(part); err != nil {
						t.Fatal(err)
					}
				}
				if got, _ := fresh.Result(); got != want[len(parts)] {
					t.Fatalf("no prefix: %+v, sequential %+v", got, want[len(parts)])
				}
			}
		})
	}
}

// tallyState sums a key's deltas.
type tallyState struct{ Sum sym.SymInt }

func (s *tallyState) Fields() []sym.Value { return []sym.Value{&s.Sum} }

// tallyQuery reads "key delta" records; a key's line is "key:sum" and is
// empty while the sum is zero, so an append can make a line appear,
// change or vanish.
func tallyQuery(id string) (*core.Query[*tallyState, int64, int64], func(string, int64) string) {
	q := &core.Query[*tallyState, int64, int64]{
		Name: id,
		GroupBy: func(rec []byte) (string, int64, bool) {
			key, raw := data.Field2(rec, 0, 1)
			n, ok := data.ParseInt(raw)
			return string(key), n, ok
		},
		NewState:    func() *tallyState { return &tallyState{Sum: sym.NewSymInt(0)} },
		Update:      func(_ *sym.Ctx, s *tallyState, n int64) { s.Sum.Add(n) },
		Result:      func(_ string, s *tallyState) int64 { return s.Sum.Get() },
		EncodeEvent: func(e *wire.Encoder, n int64) { e.Varint(n) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	return q, func(key string, sum int64) string {
		if sum == 0 {
			return ""
		}
		return fmt.Sprintf("%s:%d", key, sum)
	}
}

// TestOverlayLineCases drives the merge of owned lines into a prefix's
// through the cases it has to get right, on a query small enough to read:
// "a" is a strict prefix of "a0" and sorts before it as a key but after
// it as a line ("a0:1" < "a:1" — lines are ordered as lines); a line
// that vanishes, one that appears, one that changes, a key the prefix
// has never seen, an overlay that touches every key, one that touches
// none, and a freeze on top of an overlay whose lines must be the new
// state's. Each step is checked against the sequential run over the same
// segments.
func TestOverlayLineCases(t *testing.T) {
	const id = "overlay-line-cases"
	q, format := tallyQuery(id)
	c, err := core.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	registerServeQuery(id, q, c, format)
	seg := func(lines ...string) *mapreduce.Segment {
		s := &mapreduce.Segment{}
		for _, l := range lines {
			s.Records = append(s.Records, []byte(strings.ReplaceAll(l, " ", "\t")))
		}
		return s
	}
	segs := []*mapreduce.Segment{
		seg("a 1", "a0 1", "gone 2", "zero 0", "same 5"), // the prefix: zero has no line
		seg("gone -2", "zero 3", "a 1", "new 4"),         // vanishes, appears, changes, unseen
		seg(),                                            // touches nothing
		seg("a 1", "a0 1", "gone 1", "zero 1", "same 1", "new 1"), // touches everything
		seg("a -3", "a0 -2", "a1 7"),                              // "a" vanishes between "a0" and "a1"
	}
	for i, s := range segs {
		s.ID = i
	}
	parts := segmentParts(t, id, segs)
	want := func(n int) serve.Result {
		out, err := core.RunSequential(q, segs[:n])
		if err != nil {
			t.Fatal(err)
		}
		d, c := digestResults(out.Results, format)
		return serve.Result{Digest: d, NumResults: c}
	}
	if w := want(1); w.NumResults != 4 {
		t.Fatalf("the prefix has %d lines, want 4 (zero's is empty)", w.NumResults)
	}
	if w := want(2); w.NumResults != 5 {
		t.Fatalf("after the append %d lines, want 5 (gone's went, zero's and new's came)", w.NumResults)
	}

	first := newSession(t, id)
	if err := first.FoldPart(parts[0]); err != nil {
		t.Fatal(err)
	}
	prefix := first.Freeze()
	if floor := int64(5*stateOverhead + 4*lineOverhead + len("a:1a0:1gone:2same:5")); prefix.Bytes() < floor {
		t.Fatalf("the prefix charges %d bytes, under the %d its five states and four lines alone take", prefix.Bytes(), floor)
	}
	sess := newSession(t, id)
	sess.Resume(prefix)
	for n := 1; ; n++ {
		for ask := 0; ask < 2; ask++ {
			if got, err := sess.Result(); err != nil || got != want(n) {
				t.Fatalf("after %d segments (ask %d): %+v (%v), sequential %+v", n, ask, got, err, want(n))
			}
		}
		if n == len(parts) {
			break
		}
		if n == 3 {
			// A freeze over an overlay: what resumes from it must see the
			// overlay's lines, not the first prefix's.
			over := newSession(t, id)
			over.Resume(sess.Freeze())
			if got, _ := over.Result(); got != want(n) {
				t.Fatalf("resumed from a freeze over an overlay: %+v, sequential %+v", got, want(n))
			}
		}
		if err := sess.FoldPart(parts[n]); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := first.Result(); got != want(1) {
		t.Errorf("the session that froze the prefix now answers %+v, want %+v", got, want(1))
	}
}
