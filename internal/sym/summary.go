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
// carries its schema, which lets Apply, ComposeWith and Encode run off
// the captured field slices with pooled scratch, and lets Release return
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
func (s *Summary[S]) Apply(c S) (out S, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	res, aerr := s.applyPS(wrapState(c))
	if aerr != nil {
		var zero S
		return zero, aerr
	}
	return res.s, nil
}

// applyPS is Apply over containers: the returned container is freshly
// drawn from the schema pool (or GC-allocated without a schema) and owned
// by the caller.
func (s *Summary[S]) applyPS(cw *pathState[S]) (*pathState[S], error) {
	for _, p := range s.ps {
		if admitsFields(p.fs, cw.fs) {
			return s.concretizePS(p, cw), nil
		}
	}
	return nil, ErrNoPath
}

// ApplyStrict is Apply plus a validity check: it errors if the number of
// admitting paths differs from one (the partition property is violated).
// Use in tests; Apply takes the first admitting path.
func (s *Summary[S]) ApplyStrict(c S) (out S, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	cw := wrapState(c)
	var chosen *pathState[S]
	n := 0
	for _, p := range s.ps {
		if admitsFields(p.fs, cw.fs) {
			chosen = p
			n++
		}
	}
	if n != 1 {
		var zero S
		return zero, fmt.Errorf("%w: %d of %d paths admit the state", ErrNoPath, n, len(s.ps))
	}
	return s.concretizePS(chosen, cw).s, nil
}

func (s *Summary[S]) concretizePS(p, cw *pathState[S]) *pathState[S] {
	var env Env
	captureEnvInto(&env, cw.fs)
	var out *pathState[S]
	if s.sc != nil {
		out = s.sc.cloneOf(p)
	} else {
		out = wrapState(cloneState(s.newState, p.s))
	}
	for i, f := range out.fs {
		f.Concretize(cw.fs[i], &env)
	}
	return out
}

// ApplyAll composes an ordered sequence of summaries onto the concrete
// state c, the reducer-side evaluation S_n(…S_2(S_1(c))…) of paper §3.6.
// It is the non-consuming convenience over Fold: neither c nor the
// summaries are modified or released.
func ApplyAll[S State](c S, summaries []*Summary[S]) (S, error) {
	f := Fold[S]{state: wrapState(c)}
	if err := f.apply(summaries); err != nil {
		var zero S
		return zero, err
	}
	return f.state.s, nil
}

// ComposeWith composes two summaries into one: s runs first, next runs
// second, and the result maps s's input directly to next's output
// (paper §3.6: function composition is associative, enabling parallel
// reduction of summaries). The composition takes the cross product of
// path pairs, eliminates infeasible combinations, and re-merges. Neither
// input is consumed; release them separately if pooled.
func (s *Summary[S]) ComposeWith(next *Summary[S]) (out *Summary[S], err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
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
	return decodeSummary[S](nil, newState, d)
}

// DecodeSummary reads a summary written by Encode into pooled containers
// of the schema, so reducers that Release consumed summaries recycle
// their path states instead of reallocating per summary.
func (sc *Schema[S]) DecodeSummary(d *wire.Decoder) (*Summary[S], error) {
	return decodeSummary(sc, sc.newState, d)
}

func decodeSummary[S State](sc *Schema[S], newState func() S, d *wire.Decoder) (*Summary[S], error) {
	h := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	tagless := h&summaryTagless != 0
	if h>>1 > uint64(d.Remaining()+1) {
		return nil, fmt.Errorf("%w: summary claims %d paths with %d bytes left",
			wire.ErrCorrupt, h>>1, d.Remaining())
	}
	n := int(h >> 1)
	ps := make([]*pathState[S], 0, n)
	bail := func(i int, err error) (*Summary[S], error) {
		if sc != nil {
			for _, p := range ps {
				sc.put(p)
			}
		}
		return nil, fmt.Errorf("sym: decoding summary path %d: %w", i, err)
	}
	for i := 0; i < n; i++ {
		var p *pathState[S]
		if sc != nil {
			// Every Value.Decode fully overwrites its receiver (scalars
			// assigned, slices freshly made), so a recycled container
			// needs no reset.
			p = sc.get()
		} else {
			p = wrapState(newState())
		}
		ps = append(ps, p)
		for fi, f := range p.fs {
			if tagless {
				tc, ok := f.(taglessCodec)
				if !ok {
					return bail(i, fmt.Errorf("%w: tagless summary but field %d cannot decode tagless",
						wire.ErrCorrupt, fi))
				}
				if err := tc.decodeTagless(d, fi); err != nil {
					return bail(i, err)
				}
			} else if err := f.Decode(d); err != nil {
				return bail(i, err)
			}
		}
	}
	return &Summary[S]{ps: ps, newState: newState, sc: sc}, nil
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
