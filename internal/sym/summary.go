package sym

import (
	"fmt"
	"strings"

	"repro/internal/wire"
)

// Summary is a symbolic summary of a UDA execution over one input chunk:
// a set of paths, each a State whose fields carry a per-variable
// constraint on the chunk's unknown initial state and the transfer
// function producing the final state (paper §3.2). A valid summary's path
// constraints partition the initial-state space, so applying a summary to
// any concrete state selects exactly one path.
//
// Summaries are the snapshot form: plainly allocated containers the
// holder owns, released by dropping them. Executor.Finish produces them
// for callers that want to hold, compose or inspect a chunk's function;
// the engine's own data path never does — a map task encodes each key's
// bundle straight from the executor's paths (Executor.AppendBundle) and
// a fold site decodes bundles into containers it keeps (Folder). A
// summary produced by an Executor carries its schema; one built by
// DecodeSummary has none and compiles the plan when an operation needs
// it.
type Summary[S State] struct {
	ps       []*pathState[S]
	newState func() S
	sc       *Schema[S] // nil for summaries built outside an executor
}

// schema returns the summary's compiled plan. A summary built outside
// an executor compiles one per call rather than keep it: summaries are
// shared read-only.
func (s *Summary[S]) schema() *Schema[S] {
	if s.sc == nil {
		return newSchema(s.newState)
	}
	return s.sc
}

// NumPaths returns the number of paths.
func (s *Summary[S]) NumPaths() int { return len(s.ps) }

// Paths returns the underlying paths. They must not be mutated. The
// slice is rebuilt per call; this is a diagnostic/test accessor, not a
// hot-path API.
func (s *Summary[S]) Paths() []S {
	out := make([]S, len(s.ps))
	for i, p := range s.ps {
		out[i] = p.s
	}
	return out
}

// Apply composes the summary onto the concrete state c: it selects the
// path admitting c, applies the transfer functions, and resolves symbolic
// vector elements (paper §3.6). c is not mutated.
func (s *Summary[S]) Apply(c S) (S, error) {
	return ApplyAll(c, []*Summary[S]{s})
}

// ApplyAll composes an ordered sequence of summaries onto the concrete
// state c, the reducer-side evaluation S_n(…S_2(S_1(c))…) of paper §3.6.
// It is the one-shot convenience over Folder: neither c nor the
// summaries are modified.
func ApplyAll[S State](c S, summaries []*Summary[S]) (S, error) {
	if len(summaries) == 0 {
		return c, nil
	}
	st := (*FoldState[S])(wrapState(c))
	if err := NewFolder(summaries[0].schema()).Add(st, summaries); err != nil {
		var zero S
		return zero, err
	}
	return st.s, nil
}

// composeAfter appends to out a clone of every path of next composed
// after p — next's path expressed over p's symbolic input (paper §3.6) —
// dropping the infeasible pairs. When a composition aborts (e.g. a
// transfer coefficient overflows) it returns the abort's error with out
// as it was and every clone retired.
func (c *containers[S]) composeAfter(out []*pathState[S], p *pathState[S], next []*pathState[S], senv *SymEnv) (res []*pathState[S], err error) {
	base := len(out)
	res = out
	var cand *pathState[S]
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			c.putAll(res[base:])
			if cand != nil {
				c.put(cand)
			}
			res, err = res[:base], f.err
		}
	}()
	c.sc.captureSymEnv(senv, p.fs)
	for _, t := range next {
		cand = c.cloneOf(t)
		feasible := true
		for i, f := range cand.fs {
			if !f.ComposeAfter(p.fs[i], senv) {
				feasible = false
				break
			}
		}
		if feasible {
			res = append(res, cand)
		} else {
			c.put(cand)
		}
		cand = nil
	}
	return res, nil
}

// compose builds "a then b" as one path set: the cross product of path
// pairs, infeasible combinations eliminated, then re-merged. Both inputs
// are borrowed.
func (c *containers[S]) compose(a, b []*pathState[S], senv *SymEnv) (out []*pathState[S], err error) {
	defer catchFailure(&err) // merge aborts on mismatched shapes
	for _, pa := range a {
		if out, err = c.composeAfter(out, pa, b, senv); err != nil {
			c.putAll(out)
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, ErrInfeasible
	}
	out, _ = c.merge(out)
	return out, nil
}

// composeTree reduces ordered path sets to one and counts the pairwise
// compositions it performed. Composition is associative (paper §3.6), so
// instead of a left-to-right fold the reduction runs as a balanced
// pairwise tree: adjacent sets compose first and the list halves per
// level. Every compose still pairs a set with its immediate successor,
// so the §5.4 order is preserved at every node. The balanced shape
// matters for cost, not just depth — a skewed fold drags one ever-growing
// accumulator through every step, while the tree composes like-sized
// sets whose path products stay small. The inputs are borrowed;
// intermediates retire to c. With a single input, that input itself is
// returned.
func (c *containers[S]) composeTree(lists [][]*pathState[S], senv *SymEnv) (out []*pathState[S], composes int, err error) {
	level := append([][]*pathState[S](nil), lists...)
	owned := make([]bool, len(level)) // inputs are borrowed, intermediates owned
	for len(level) > 1 {
		w := 0
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				level[w], owned[w] = level[i], owned[i]
				w++
				break
			}
			ps, err := c.compose(level[i], level[i+1], senv)
			composes++
			if err != nil {
				// Retire every intermediate: this level's results so
				// far, and the owned sets not yet consumed.
				for j := 0; j < w; j++ {
					c.putAll(level[j])
				}
				for j := i; j < len(level); j++ {
					if owned[j] {
						c.putAll(level[j])
					}
				}
				return nil, composes, err
			}
			if owned[i] {
				c.putAll(level[i])
			}
			if owned[i+1] {
				c.putAll(level[i+1])
			}
			level[w], owned[w] = ps, true
			w++
		}
		level, owned = level[:w], owned[:w]
	}
	return level[0], composes, nil
}

// ComposeWith composes two summaries into one: s runs first, next runs
// second, and the result maps s's input directly to next's output
// (paper §3.6: function composition is associative, enabling parallel
// reduction of summaries). Neither input is consumed.
func (s *Summary[S]) ComposeWith(next *Summary[S]) (*Summary[S], error) {
	out, _, err := ComposeAllCounted([]*Summary[S]{s, next})
	return out, err
}

// ComposeAll reduces an ordered list of summaries to a single summary
// (see composeTree for the shape). The inputs are not consumed. With a
// single input, that input itself is returned.
func ComposeAll[S State](summaries []*Summary[S]) (*Summary[S], error) {
	s, _, err := ComposeAllCounted(summaries)
	return s, err
}

// ComposeAllCounted is ComposeAll returning the number of pairwise
// compositions actually performed. Folding n summaries takes exactly
// n−1 composes however the tree is shaped — the count is measured, not
// derived, so the observability layer can assert that algebraic
// identity on real runs rather than trust it by construction.
func ComposeAllCounted[S State](summaries []*Summary[S]) (*Summary[S], int, error) {
	if len(summaries) == 0 {
		return nil, 0, fmt.Errorf("sym: ComposeAll of zero summaries")
	}
	if len(summaries) == 1 {
		return summaries[0], 0, nil
	}
	lists := make([][]*pathState[S], len(summaries))
	for i, s := range summaries {
		lists[i] = s.ps
	}
	first := summaries[0]
	c := containers[S]{sc: first.schema()}
	var senv SymEnv
	ps, n, err := c.composeTree(lists, &senv)
	if err != nil {
		return nil, n, err
	}
	return &Summary[S]{ps: ps, newState: first.newState, sc: c.sc}, n, nil
}

// summaryTagless is the header bit marking a summary whose fields are
// encoded without per-field tags: every field's tag equals its position
// in the state, so the schema's field order is the tag dictionary. The
// header is Uvarint(numPaths<<1 | taglessBit).
const summaryTagless = 1

// Encode appends the summary's compact wire form to e. The summary is
// Compacted first (idempotent), so what ships is the canonical deduped
// path set.
func (s *Summary[S]) Encode(e *wire.Encoder) {
	s.Compact()
	encodePaths(e, s.ps)
}

// encodePaths appends one summary — the path set ps, already compact —
// to e.
func encodePaths[S State](e *wire.Encoder, ps []*pathState[S]) {
	tagless := true
	for _, p := range ps {
		for i, f := range p.fs {
			if tc, ok := f.(taglessCodec); !ok || !tc.tagMatches(i) {
				tagless = false
				break
			}
		}
		if !tagless {
			break
		}
	}
	h := uint64(len(ps)) << 1
	if tagless {
		h |= summaryTagless
	}
	e.Uvarint(h)
	for _, p := range ps {
		for _, f := range p.fs {
			if tagless {
				f.(taglessCodec).encodeTagless(e)
			} else {
				f.Encode(e)
			}
		}
	}
}

// DecodeSummary reads a summary written by Encode. newState must build
// states of the same shape (field order, enum domains, codecs) as the
// encoding side.
func DecodeSummary[S State](newState func() S, d *wire.Decoder) (*Summary[S], error) {
	n, tagless, err := decodeSummaryHeader(d)
	if err != nil {
		return nil, err
	}
	ps := make([]*pathState[S], n)
	for i := range ps {
		ps[i] = wrapState(newState())
		if err := decodePath(d, ps[i], tagless, i); err != nil {
			return nil, err
		}
	}
	return &Summary[S]{ps: ps, newState: newState}, nil
}

// decodeSummaryHeader reads a summary's path count and whether its
// fields are encoded tagless.
func decodeSummaryHeader(d *wire.Decoder) (n int, tagless bool, err error) {
	h := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, false, err
	}
	if h>>1 > uint64(d.Remaining()+1) {
		return 0, false, fmt.Errorf("%w: summary claims %d paths with %d bytes left",
			wire.ErrCorrupt, h>>1, d.Remaining())
	}
	return int(h >> 1), h&summaryTagless != 0, nil
}

// decodePath reads path i of a summary into the container p. Every
// Value.Decode overwrites its receiver in full, so a reused container
// needs no reset; it may reuse the receiver's storage, so p must be a
// container nothing else shares storage with (see Value.Decode).
func decodePath[S State](d *wire.Decoder, p *pathState[S], tagless bool, i int) error {
	for fi, f := range p.fs {
		var err error
		if !tagless {
			err = f.Decode(d)
		} else if tc, ok := f.(taglessCodec); ok {
			err = tc.decodeTagless(d, fi)
		} else {
			err = fmt.Errorf("%w: tagless summary but field %d cannot decode tagless", wire.ErrCorrupt, fi)
		}
		if err != nil {
			return fmt.Errorf("sym: decoding summary path %d: %w", i, err)
		}
	}
	return nil
}

// String renders the summary for diagnostics, one path per line.
func (s *Summary[S]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary(%d paths)\n", len(s.ps))
	for _, p := range s.ps {
		parts := make([]string, 0, len(p.fs))
		for _, f := range p.fs {
			parts = append(parts, f.String())
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(parts, " ∧ "))
	}
	return b.String()
}
