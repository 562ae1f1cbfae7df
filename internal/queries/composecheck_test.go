package queries

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
	"repro/internal/wire"
)

// composeCheck runs the metamorphic composition properties over a
// query's schema on real summaries (composeCheckQuery); splits controls
// how many mapper slices each group's event stream is cut into (more
// slices → more summaries per group); opts replaces the query's symbolic
// options when non-zero (a low path cap makes keys restart). The typed
// query is the one the spec registered with the query service.
func composeCheck(spec *Spec, segs []*mapreduce.Segment, splits int, opts sym.Options) (*composeReport, error) {
	r, ok := serve.Lookup(spec.ID).(interface {
		composeCheck([]*mapreduce.Segment, int, sym.Options) (*composeReport, error)
	})
	if !ok {
		return nil, fmt.Errorf("query %s: no typed query registered", spec.ID)
	}
	return r.composeCheck(segs, splits, opts)
}

func (r *serveRunner[S, E, R]) composeCheck(segs []*mapreduce.Segment, splits int, opts sym.Options) (*composeReport, error) {
	// A shallow copy: the registered query is shared.
	q := *r.q
	if opts != (sym.Options{}) {
		q.Options = opts
	}
	return composeCheckQuery(&q, r.format, segs, splits)
}

// composeReport counts the work a composeCheck actually did, so tests
// can reject vacuous passes (no groups, no associativity triples).
type composeReport struct {
	Keys      int // groups checked
	Summaries int // summaries folded across all groups
	Triples   int // associativity triples compared
	Skipped   int // groups skipped because composition hit a path cap
	Bundles   int // (slice, key) bundles compared byte for byte
	Restarted int // of those, ones of a key that restarted (several summaries)
	Events    int // groups shipped as their events whose bundle was folded beside their summaries'
}

// composeCheckQuery verifies the algebra the SYMPLE engines lean on, on real
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
func composeCheckQuery[S sym.State, E, R any](
	q *core.Query[S, E, R],
	format func(key string, r R) string,
	segs []*mapreduce.Segment,
	splits int,
) (*composeReport, error) {
	c, err := core.Compile(q)
	if err != nil {
		return nil, err
	}
	sc := c.Schema()
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
	rep := &composeReport{}
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

// checkBundle is composeCheckQuery's property 3 or 4, by the form of the
// bundle x appends for evs, which it has just been fed after a Reset;
// prefix is the key's events before them.
func checkBundle[S sym.State, E any](x *sym.Executor[S, E], site *sym.Folder[S], prefix, evs []E, rep *composeReport) error {
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

// checkEvents is composeCheckQuery's property 4 for the events evs of a key
// whose events before them are prefix. It reports whether they shipped
// as events: a group too large to is property 3's.
func checkEvents[S sym.State, E any](x *sym.Executor[S, E], site *sym.Folder[S], prefix, evs []E, rep *composeReport) (bool, error) {
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
			err = site.Fold(starts[1], starts[1], b)
		}
		if err != nil {
			return true, fmt.Errorf("folding the events before them: %w", err)
		}
	}
	summary, got, want := sym.EncodeSummaryBundle(sums), site.NewState(), site.NewState()
	for i, src := range starts {
		before := foldStateBytes(src)
		errE := site.Fold(got, src, events)
		errS := site.Fold(want, src, summary)
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
