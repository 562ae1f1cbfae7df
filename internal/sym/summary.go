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
// Paths are held in schema containers. A summary produced by an Executor
// carries its schema, which lets ComposeWith and Encode run off the
// captured field slices with pooled scratch, and lets Release return
// the containers once the summary is consumed. Summaries built by
// NewSummary or DecodeSummary have no schema and fall back to the
// allocating paths.
type Summary[S State] struct {
	ps       []*pathState[S]
	newState func() S
	sc       *Schema[S] // nil for schemaless summaries
	// held counts path containers a released summary keeps parked in
	// ps[:cap] for its next pooled use. Retaining them makes the
	// summary+containers a single pooled unit, so finishing a key costs
	// one pool crossing (getSummary) instead of one per container —
	// sync.Pool's per-P pinning was a measurable share of the per-key
	// fixed cost on high-cardinality chunks. Only meaningful while the
	// struct sits parked in the schema's free stack.
	held int
}

// NewSummary builds a summary from explored paths. Intended for tests and
// extensions; executors produce summaries via Finish.
func NewSummary[S State](newState func() S, paths []S) *Summary[S] {
	ps := make([]*pathState[S], len(paths))
	for i, p := range paths {
		ps[i] = wrapState(p)
	}
	return &Summary[S]{ps: ps, newState: newState}
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

// Release recycles the summary — struct, path-list backing array AND
// path containers — through the schema's summary pool as one unit. The
// containers stay parked inside the pooled struct (held) rather than
// going back to the container pool, so the next Finish on this schema
// reuses them with a single pool crossing. Call once the summary has
// been consumed (folded into a state or composed away); no-op for
// schemaless summaries. The summary must not be used — or released
// again — afterwards.
func (s *Summary[S]) Release() {
	sc := s.sc
	if sc == nil {
		return
	}
	s.held = len(s.ps)
	s.ps = s.ps[:0]
	s.newState = nil
	s.sc = nil
	sc.parkSummary(s)
}

// Apply composes the summary onto the concrete state c: it selects the
// path admitting c, applies the transfer functions, and resolves symbolic
// vector elements (paper §3.6). c is not mutated.
func (s *Summary[S]) Apply(c S) (S, error) {
	return ApplyAll(c, []*Summary[S]{s})
}

// ApplyStrict is Apply plus a validity check: it errors if the number of
// admitting paths differs from one (the partition property is violated).
// Use in tests; Apply takes the first admitting path.
func (s *Summary[S]) ApplyStrict(c S) (out S, err error) {
	defer catchFailure(&err)
	cf := c.Fields()
	n := 0
	for _, p := range s.ps {
		if admitsFields(p.fs, cf) {
			n++
		}
	}
	if n != 1 {
		return out, fmt.Errorf("%w: %d of %d paths admit the state", ErrNoPath, n, len(s.ps))
	}
	return s.Apply(c)
}

// ApplyAll composes an ordered sequence of summaries onto the concrete
// state c, the reducer-side evaluation S_n(…S_2(S_1(c))…) of paper §3.6.
// It is the one-shot convenience over Folder: neither c nor the
// summaries are modified or released.
func ApplyAll[S State](c S, summaries []*Summary[S]) (S, error) {
	if len(summaries) == 0 {
		return c, nil
	}
	sc := summaries[0].sc
	if sc == nil { // built outside an executor: compile the plan here
		sc = newSchema(summaries[0].newState)
	}
	st := (*FoldState[S])(wrapState(c))
	if err := NewFolder(sc).Add(st, summaries); err != nil {
		var zero S
		return zero, err
	}
	return st.s, nil
}

// ComposeWith composes two summaries into one: s runs first, next runs
// second, and the result maps s's input directly to next's output
// (paper §3.6: function composition is associative, enabling parallel
// reduction of summaries). The composition takes the cross product of
// path pairs, eliminates infeasible combinations, and re-merges. Neither
// input is consumed; release them separately if pooled.
func (s *Summary[S]) ComposeWith(next *Summary[S]) (out *Summary[S], err error) {
	defer catchFailure(&err)
	var senv SymEnv
	var paths []*pathState[S]
	for _, pa := range s.ps {
		captureSymEnvInto(&senv, pa.fs)
		for _, pb := range next.ps {
			var cand *pathState[S]
			if s.sc != nil {
				cand = s.sc.cloneOf(pb)
			} else {
				cand = wrapState(cloneState(s.newState, pb.s))
			}
			feasible := true
			for i, f := range cand.fs {
				if !f.ComposeAfter(pa.fs[i], &senv) {
					feasible = false
					break
				}
			}
			if feasible {
				paths = append(paths, cand)
			} else if s.sc != nil {
				s.sc.put(cand)
			}
		}
	}
	if len(paths) == 0 {
		return nil, ErrInfeasible
	}
	paths, _ = mergePathStates(s.sc, paths)
	return &Summary[S]{ps: paths, newState: s.newState, sc: s.sc}, nil
}

// ComposeAll reduces an ordered list of summaries to a single summary.
// Composition is associative (paper §3.6), so instead of a left-to-right
// fold the reduction runs as a balanced pairwise tree: adjacent
// summaries compose first and the list halves per level. Every
// ComposeWith still pairs a summary with its immediate successor, so the
// §5.4 order is preserved at every node. The balanced shape matters for
// cost, not just depth — a skewed fold drags one ever-growing
// accumulator through every step, while the tree composes like-sized
// summaries whose path products stay small. The inputs are not consumed;
// intermediate results are recycled. With a single input, that input
// itself is returned.
func ComposeAll[S State](summaries []*Summary[S]) (*Summary[S], error) {
	s, _, err := ComposeAllCounted(summaries)
	return s, err
}

// ComposeAllCounted is ComposeAll returning the number of pairwise
// ComposeWith calls actually performed. Folding n summaries takes
// exactly n−1 composes however the tree is shaped — the count is
// measured, not derived, so the observability layer can assert that
// algebraic identity on real runs rather than trust it by construction.
func ComposeAllCounted[S State](summaries []*Summary[S]) (*Summary[S], int, error) {
	composes := 0
	if len(summaries) == 0 {
		return nil, 0, fmt.Errorf("sym: ComposeAll of zero summaries")
	}
	level := append([]*Summary[S](nil), summaries...)
	owned := make([]bool, len(level)) // inputs are borrowed, intermediates owned
	for len(level) > 1 {
		w := 0
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				level[w], owned[w] = level[i], owned[i]
				w++
				break
			}
			c, err := level[i].ComposeWith(level[i+1])
			composes++
			if err != nil {
				for j, s := range level {
					if s != nil && owned[j] {
						s.Release()
					}
				}
				return nil, composes, err
			}
			if owned[i] {
				level[i].Release()
			}
			if owned[i+1] {
				level[i+1].Release()
			}
			level[i], level[i+1] = nil, nil
			level[w], owned[w] = c, true
			w++
		}
		level, owned = level[:w], owned[:w]
	}
	return level[0], composes, nil
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
	tagless := true
	for _, p := range s.ps {
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
	h := uint64(len(s.ps)) << 1
	if tagless {
		h |= summaryTagless
	}
	e.Uvarint(h)
	for _, p := range s.ps {
		for _, f := range p.fs {
			if tagless {
				f.(taglessCodec).encodeTagless(e)
			} else {
				f.Encode(e)
			}
		}
	}
}

// EncodedSize returns the wire size of the summary in bytes.
func (s *Summary[S]) EncodedSize() int {
	e := wire.GetEncoder()
	s.Encode(e)
	n := e.Len()
	wire.PutEncoder(e)
	return n
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
// Value.Decode fully overwrites its receiver (scalars assigned, slices
// freshly made), so a reused container needs no reset — and whatever
// shared the old contents (CopyFrom copies slice headers) keeps them.
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
