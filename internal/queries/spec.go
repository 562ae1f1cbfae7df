// Package queries implements the paper's 12 evaluation queries (Table 1):
// G1–G4 over the GitHub log, B1–B3 over the Bing query log, T1 over the
// Twitter firehose, and R1–R4 over the RedShift ad impressions. Each
// query is a core.Query — a GroupBy plus a UDA written against the
// symbolic data types — together with enough type-erased plumbing for the
// benchmark harness to run any query under any engine and compare
// outputs across engines.
package queries

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/sym"
	"repro/internal/wire"
)

// Run is the type-erased outcome of executing a query under one engine.
type Run struct {
	// Digest is an order-insensitive hash of the formatted results;
	// equal digests across engines mean equal outputs.
	Digest uint64
	// NumResults counts groups with a non-empty result line.
	NumResults int
	Metrics    *mapreduce.Metrics
	Sym        core.SymStats
}

// Spec is a type-erased query: metadata for Table 1 plus engine runners.
type Spec struct {
	ID          string
	Description string
	Dataset     string

	// Sym types the UDA uses, for the Table 1 columns.
	UsesEnum, UsesInt, UsesPred bool

	Sequential func(segs []*mapreduce.Segment) (*Run, error)
	Baseline   func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error)
	Symple     func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error)

	// BaselinePair is the two halves Baseline runs as one job — its map,
	// and a reduce returning one group's result line — for a caller that
	// runs the shuffle between them itself: Fig 4 pipes the map output
	// through Unix sort. Digest over the lines is the Run's.
	BaselinePair func() (mapreduce.MapFunc, func(key string, values []mapreduce.Shuffled) (string, error), error)

	// SympleWithOptions runs the SYMPLE engine with explicit symbolic
	// engine options (for the merging / path-cap ablations).
	SympleWithOptions func(segs []*mapreduce.Segment, conf mapreduce.Config, opts sym.Options) (*Run, error)

	// ComposeCheck runs the metamorphic composition properties over this
	// query's schema on real summaries: associativity of summary
	// composition (§3.6), ComposeAll equivalence with the sequential
	// apply fold, the map task's bundle — appended straight from the
	// executor's paths — against the snapshot API's, and a small group's
	// events bundle against its summaries'. splits controls how
	// many mapper slices each group's event stream is cut into (more
	// slices → more summaries per group); opts replaces the query's
	// symbolic options when non-zero (a low path cap makes keys restart).
	ComposeCheck func(segs []*mapreduce.Segment, splits int, opts sym.Options) (*ComposeReport, error)
}

// ComposeReport counts the work a ComposeCheck actually did, so tests
// can reject vacuous passes (no groups, no associativity triples).
type ComposeReport struct {
	Keys      int // groups checked
	Summaries int // summaries folded across all groups
	Triples   int // associativity triples compared
	Skipped   int // groups skipped because composition hit a path cap
	Bundles   int // (slice, key) bundles compared byte for byte
	Restarted int // of those, ones of a key that restarted (several summaries)
	Events    int // groups shipped as their events whose bundle was folded beside their summaries'
}

// SymTypesString renders the Table 1 "Sym Types Used" cell.
func (s *Spec) SymTypesString() string {
	var parts []string
	if s.UsesEnum {
		parts = append(parts, "Enum")
	}
	if s.UsesInt {
		parts = append(parts, "Int")
	}
	if s.UsesPred {
		parts = append(parts, "Pred")
	}
	return strings.Join(parts, "+")
}

// digestResults hashes formatted per-key result lines (Digest).
func digestResults[R any](results map[string]R, format func(key string, r R) string) (uint64, int) {
	lines := make([]string, 0, len(results))
	for k, r := range results {
		lines = append(lines, format(k, r))
	}
	return Digest(lines)
}

// Digest hashes result lines, order-insensitive, and counts them: a
// Run's Digest and NumResults. Empty lines (filtered results) are
// skipped. It sorts lines in place.
func Digest(lines []string) (uint64, int) {
	sort.Strings(lines)
	h := fnv.New64a()
	n := 0
	for _, l := range lines {
		if l == "" {
			continue
		}
		_, _ = h.Write([]byte(l))
		_, _ = h.Write([]byte{'\n'})
		n++
	}
	return h.Sum64(), n
}

// makeSpec wraps a typed query into a Spec.
func makeSpec[S sym.State, E, R any](
	id, desc, dataset string,
	usesEnum, usesInt, usesPred bool,
	q *core.Query[S, E, R],
	format func(key string, r R) string,
) *Spec {
	wrap := func(out *core.Output[R], err error) (*Run, error) {
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", id, err)
		}
		d, n := digestResults(out.Results, format)
		return &Run{Digest: d, NumResults: n, Metrics: out.Metrics, Sym: out.Sym}, nil
	}
	// Publish the map side for cluster workers (see cluster.go) and the
	// fold side for the query service (see serve.go).
	registerClusterJob(id, q)
	registerServeQuery(id, q, format)
	return &Spec{
		ID: id, Description: desc, Dataset: dataset,
		UsesEnum: usesEnum, UsesInt: usesInt, UsesPred: usesPred,
		Sequential: func(segs []*mapreduce.Segment) (*Run, error) {
			return wrap(core.RunSequential(q, segs))
		},
		Baseline: func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error) {
			return wrap(core.RunBaseline(q, segs, conf))
		},
		Symple: func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error) {
			return wrap(core.RunSymple(q, segs, conf))
		},
		BaselinePair: func() (mapreduce.MapFunc, func(string, []mapreduce.Shuffled) (string, error), error) {
			b, err := core.NewBaseline(q, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("query %s: %w", id, err)
			}
			return b.Map, func(key string, values []mapreduce.Shuffled) (string, error) {
				r, err := b.Reduce(key, values)
				if err != nil {
					return "", err
				}
				return format(key, r), nil
			}, nil
		},
		SympleWithOptions: func(segs []*mapreduce.Segment, conf mapreduce.Config, opts sym.Options) (*Run, error) {
			// A shallow copy: q is shared with every other runner, the
			// cluster job and the serve runner, any of which may be
			// running concurrently.
			qq := *q
			qq.Options = opts
			return wrap(core.RunSymple(&qq, segs, conf))
		},
		ComposeCheck: func(segs []*mapreduce.Segment, splits int, opts sym.Options) (*ComposeReport, error) {
			qq := *q
			if opts != (sym.Options{}) {
				qq.Options = opts
			}
			return composeCheck(&qq, format, segs, splits)
		},
	}
}

// composeCheck verifies the algebra the SYMPLE engines lean on, on real
// summaries produced from real records (not synthetic states):
//
//  1. Compose(Compose(a,b),c) ≡ Compose(a,Compose(b,c)) — associativity,
//     which licenses ComposeAll's balanced tree (§3.6);
//  2. ComposeAll(sums) then one apply ≡ the sequential left-to-right
//     ApplyAll fold the reducer performs, in exactly n−1 pairwise
//     compositions;
//  3. for a group a summary describes — a key that restarted included —
//     the bundle a map task appends straight from the executor's paths
//     is, byte for byte, the encoded Finish snapshot;
//  4. a group that ships its events — every slice that does, and a
//     seeded random one of every key — folds to the state its summaries'
//     bundle does, from the initial state and from the state the key's
//     earlier events reach, neither written by a fold from it (a frozen
//     serve prefix's shape).
//
// Equivalence is judged on the formatted query result after applying to
// the initial state — the observable output, which is what the paper's
// §5.4 determinism contract promises. Groups whose composition trips a
// path cap are skipped and counted in the report.
func composeCheck[S sym.State, E, R any](
	q *core.Query[S, E, R],
	format func(key string, r R) string,
	segs []*mapreduce.Segment,
	splits int,
) (*ComposeReport, error) {
	sc, err := q.Schema()
	if err != nil {
		return nil, err
	}
	if splits < 1 {
		splits = 1
	}
	r := rand.New(rand.NewSource(int64(splits)))
	// Group events per key across all segments in (segment, record)
	// order — the §5.4 shuffle order the reducers see.
	events := make(map[string][]E)
	var order []string
	for _, seg := range segs {
		for _, rec := range seg.Records {
			key, ev, ok := q.GroupBy(rec)
			if !ok {
				continue
			}
			if _, seen := events[key]; !seen {
				order = append(order, key)
			}
			events[key] = append(events[key], ev)
		}
	}
	rep := &ComposeReport{}
	x := sym.NewSchemaExecutor(sc, q.Update, q.Options)
	site := sym.NewFolder(sc)
	for _, key := range order {
		evs := events[key]
		// A seeded random slice, halved until it is small enough to ship
		// its events: one event always is.
		at := r.Intn(len(evs))
		for n := 1 + r.Intn(len(evs)-at); n > 0; n /= 2 {
			shipped, err := checkEvents(x, site, evs[:at], evs[at:at+n], rep)
			if err != nil {
				return nil, fmt.Errorf("key %q, events %d..%d: %w", key, at, at+n, err)
			}
			if shipped {
				break
			}
		}
		// Cut the group's event stream into contiguous slices, one
		// executor run per slice, and concatenate the summary lists —
		// exactly what `splits` independent mappers would shuffle.
		var sums []*sym.Summary[S]
		p := splits
		if p > len(evs) {
			p = len(evs)
		}
		for i := 0; i < p; i++ {
			lo, hi := i*len(evs)/p, (i+1)*len(evs)/p
			x.Reset()
			if err := x.FeedBatch(evs[lo:hi]); err != nil {
				return nil, fmt.Errorf("key %q: %w", key, err)
			}
			ss, err := x.Finish()
			if err == nil {
				err = checkBundle(x, site, evs[:lo], evs[lo:hi], rep)
			}
			if err != nil {
				return nil, fmt.Errorf("key %q: %w", key, err)
			}
			sums = append(sums, ss...)
		}
		if len(sums) == 0 {
			continue
		}

		// Reference: the sequential fold the classic reducer performs.
		seqState, err := sym.ApplyAll(q.NewState(), sums)
		if err != nil {
			return nil, fmt.Errorf("key %q: ApplyAll: %w", key, err)
		}
		want := format(key, q.Result(key, seqState))

		// Property 2: fold everything into one summary sequentially.
		// ComposeAllCounted borrows its inputs, so sums stay live for
		// the checks below.
		folded, n, err := sym.ComposeAllCounted(sums)
		if err != nil {
			rep.Skipped++ // path cap
			continue
		}
		if n != len(sums)-1 {
			return nil, fmt.Errorf("key %q: ComposeAll did %d composes for %d summaries, want %d",
				key, n, len(sums), len(sums)-1)
		}
		if err := checkApplied(q, format, key, folded, nil, want, "ComposeAll"); err != nil {
			return nil, err
		}

		// Property 1: associativity on the group's leading triple, with
		// the remaining summaries folded on top so the comparison runs
		// through the full observable result. ComposeWith borrows both
		// operands.
		if len(sums) >= 3 {
			a, b, c := sums[0], sums[1], sums[2]
			ab, err1 := a.ComposeWith(b)
			bc, err2 := b.ComposeWith(c)
			if err1 == nil && err2 == nil {
				left, errL := ab.ComposeWith(c)
				right, errR := a.ComposeWith(bc)
				if errL == nil && errR == nil {
					errA := checkApplied(q, format, key, left, sums[3:], want, "left-assoc")
					if errA == nil {
						errA = checkApplied(q, format, key, right, sums[3:], want, "right-assoc")
					}
					if errA != nil {
						return nil, errA
					}
					rep.Triples++
				}
			}
		}

		rep.Keys++
		rep.Summaries += len(sums)
	}
	return rep, nil
}

// checkBundle is composeCheck's property 3 or 4, by the form of the
// bundle x appends for evs, which it has just been fed after a Reset;
// prefix is the key's events before them.
func checkBundle[S sym.State, E any](x *sym.Executor[S, E], site *sym.Folder[S], prefix, evs []E, rep *ComposeReport) error {
	snap, err := x.Finish()
	if err != nil {
		return err
	}
	var enc wire.Encoder
	if _, err := x.AppendBundle(&enc); err != nil {
		return err
	}
	if enc.Bytes()[0] == 0 {
		_, err := checkEvents(x, site, prefix, evs, rep)
		return err
	}
	if !bytes.Equal(enc.Bytes(), sym.EncodeSummaryBundle(snap)) {
		return fmt.Errorf("the appended bundle of %d summaries differs from the encoded snapshot", len(snap))
	}
	rep.Bundles++
	if len(snap) > 1 {
		rep.Restarted++
	}
	return nil
}

// checkEvents is composeCheck's property 4 for the events evs of a key
// whose events before them are prefix. It reports whether they shipped
// as events: a group too large to is property 3's.
func checkEvents[S sym.State, E any](x *sym.Executor[S, E], site *sym.Folder[S], prefix, evs []E, rep *ComposeReport) (bool, error) {
	bundle := func(evs []E) ([]byte, error) {
		var enc wire.Encoder
		x.Reset()
		err := x.FeedBatch(evs)
		if err == nil {
			_, err = x.AppendBundle(&enc)
		}
		return enc.Bytes(), err
	}
	events, err := bundle(evs)
	if err != nil || events[0] != 0 {
		return false, err
	}
	sums, err := x.Finish() // evs explored: their summaries
	if err != nil {
		return true, err
	}
	starts := []*sym.FoldState[S]{site.NewState(), site.NewState()}
	if len(prefix) > 0 {
		b, err := bundle(prefix)
		if err == nil {
			_, err = site.AddBundle(starts[1], b)
		}
		if err != nil {
			return true, fmt.Errorf("folding the events before them: %w", err)
		}
	}
	summary, got, want := sym.EncodeSummaryBundle(sums), site.NewState(), site.NewState()
	for i, src := range starts {
		before := foldStateBytes(src)
		_, errE := site.AddBundleFrom(got, src, events)
		_, errS := site.AddBundleFrom(want, src, summary)
		switch {
		case errE != nil || errS != nil:
			return true, fmt.Errorf("start state %d: events bundle %v, summary bundle %v", i, errE, errS)
		case !bytes.Equal(foldStateBytes(got), foldStateBytes(want)):
			return true, fmt.Errorf("start state %d: %d events fold to another state than their summaries", i, len(evs))
		case !bytes.Equal(foldStateBytes(src), before):
			return true, fmt.Errorf("start state %d was written by a fold from it", i)
		}
	}
	rep.Events++
	return true, nil
}

// foldStateBytes is st in canonical form.
func foldStateBytes[S sym.State](st *sym.FoldState[S]) []byte {
	var enc wire.Encoder
	st.Encode(&enc)
	return enc.Bytes()
}

// checkApplied applies head then rest to the initial state and compares
// the formatted result against want.
func checkApplied[S sym.State, E, R any](
	q *core.Query[S, E, R],
	format func(key string, r R) string,
	key string,
	head *sym.Summary[S],
	rest []*sym.Summary[S],
	want, label string,
) error {
	s, err := head.Apply(q.NewState())
	if err != nil {
		return fmt.Errorf("key %q: %s apply: %w", key, label, err)
	}
	if len(rest) > 0 {
		if s, err = sym.ApplyAll(s, rest); err != nil {
			return fmt.Errorf("key %q: %s tail fold: %w", key, label, err)
		}
	}
	if got := format(key, q.Result(key, s)); got != want {
		return fmt.Errorf("key %q: %s result %q, sequential fold %q", key, label, got, want)
	}
	return nil
}

// resultLine renders one result line, "key:v₁,v₂,…", appended into a
// single buffer — the one allocation is the returned string's, for any
// line that fits the stack scratch. No values, no line: a key with
// nothing to report renders "".
func resultLine(key string, vs ...int64) string {
	if len(vs) == 0 {
		return ""
	}
	var scratch [128]byte
	buf := append(append(scratch[:0], key...), ':')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, v, 10)
	}
	return string(buf)
}

// All returns every query spec, in Table 1 order.
func All() []*Spec {
	return []*Spec{
		G1(), G2(), G3(), G4(),
		B1(), B2(), B3(),
		T1(),
		R1(), R2(), R3(), R4(),
	}
}

// ByID returns the query with the given ID, or nil.
func ByID(id string) *Spec {
	for _, s := range All() {
		if s.ID == id {
			return s
		}
	}
	return nil
}
