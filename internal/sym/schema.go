package sym

import (
	"sync"
	"sync/atomic"
)

// Schema is the compiled field plan of one State type: everything the
// runtime needs to clone, merge, compose, apply and serialize states of
// that shape without consulting State.Fields on the hot path. Fields()
// allocates a fresh []Value on every call — at one executor run per
// record per path that allocation (three per clone in the seed engine)
// dominated the mapper profile. The schema walks the type once, pins the
// field count and the per-field capability plan (which fields carry a
// scalar input, which carry a scalar transfer), and thereafter hands out
// pooled pathStates whose field slice is captured exactly once per
// container lifetime.
//
// A Schema is safe for concurrent use: the container pool is a
// sync.Pool and the counters are atomic. Share one schema across all
// executors and summaries of a query run so retired path states
// circulate instead of being reallocated. The pool serves the map side
// (executors, memo transitions, composition); a fold site (Folder) keeps
// the few containers it needs for its lifetime and crosses no pool.
type Schema[S State] struct {
	newState func() S
	nf       int
	// scalarIn[i] / scalarTr[i] record whether field i implements
	// scalarInput / scalarTransfer — probed once here instead of
	// type-asserted per field per record in Env/SymEnv capture.
	scalarIn []bool
	scalarTr []bool

	pool sync.Pool // *pathState[S]
	// sumFree parks released summaries — struct, path-list backing array
	// and retained containers, one unit per entry — for reuse by the
	// per-key Finish. A plain LIFO under a mutex rather than a sync.Pool:
	// executors claim blocks into a private cache (refillSummaries), so
	// the hot per-key draw touches no synchronization at all and the lock
	// is crossed once per block. sync.Pool's per-P pinning on every
	// Get/Put was a measurable share of the per-key fixed cost on
	// high-cardinality chunks.
	sumFreeMu sync.Mutex
	sumFree   []*Summary[S]
	// allocated counts containers ever created (pool misses and fold
	// sites' own). Tests use it to assert that long runs recycle instead
	// of growing the heap.
	allocated atomic.Int64
}

// sumFreeCap bounds the parked-summary stack; overflow drops the struct
// to the GC and returns its retained containers to the container pool,
// so a release burst cannot strand containers unreachable.
const sumFreeCap = 1 << 14

// summaryRefill is the block size executors claim from the free stack:
// one lock crossing amortized over this many per-key draws.
const summaryRefill = 32

// parkSummary retires a released summary (held containers included) to
// the schema's free stack.
func (sc *Schema[S]) parkSummary(s *Summary[S]) {
	sc.sumFreeMu.Lock()
	if len(sc.sumFree) < sumFreeCap {
		sc.sumFree = append(sc.sumFree, s)
		sc.sumFreeMu.Unlock()
		return
	}
	sc.sumFreeMu.Unlock()
	for _, p := range s.ps[:s.held] {
		sc.put(p)
	}
}

// refillSummaries moves up to n parked summaries into dst with one lock
// crossing. dst should be an executor-private cache.
func (sc *Schema[S]) refillSummaries(dst []*Summary[S], n int) []*Summary[S] {
	sc.sumFreeMu.Lock()
	k := min(n, len(sc.sumFree))
	if k > 0 {
		off := len(sc.sumFree) - k
		dst = append(dst, sc.sumFree[off:]...)
		for i := off; i < len(sc.sumFree); i++ {
			sc.sumFree[i] = nil
		}
		sc.sumFree = sc.sumFree[:off]
	}
	sc.sumFreeMu.Unlock()
	return dst
}

// prepSummary readies a parked (or zero) summary for n paths, binding it
// to sc. It returns k: entries ps[:k] are valid containers retained by a
// previous Release — the caller copies state contents into them; entries
// ps[k:] are nil and must be filled with cloned containers. Surplus
// retained containers beyond n go back to the container pool so nothing
// leaks when path counts shrink.
func (sc *Schema[S]) prepSummary(s *Summary[S], n int) int {
	held := s.held
	s.held = 0
	s.ps = s.ps[:held]
	k := min(held, n)
	for _, p := range s.ps[k:] {
		sc.put(p)
	}
	if cap(s.ps) >= n {
		s.ps = s.ps[:n]
		// Cells past the retained prefix may hold stale pointers to
		// containers already recycled — nil them so no caller can ever
		// alias a container that lives elsewhere.
		for i := k; i < n; i++ {
			s.ps[i] = nil
		}
	} else {
		np := make([]*pathState[S], n)
		copy(np, s.ps[:k])
		s.ps = np
	}
	s.newState, s.sc = sc.newState, sc
	return k
}

// pathState pairs a state with its captured field slice. All engine and
// summary internals traverse fs; s is only handed to user code (Update,
// Result) and to State-typed public APIs.
type pathState[S State] struct {
	s  S
	fs []Value
}

// NewSchema compiles the field plan for the state type produced by
// newState, validating the programmer contract (ValidateState) once up
// front — validation runs here, never on the record path.
func NewSchema[S State](newState func() S) (*Schema[S], error) {
	if err := ValidateState(newState); err != nil {
		return nil, err
	}
	return newSchema(newState), nil
}

// newSchema compiles the plan without validating; NewExecutor uses it so
// constructing a per-key executor stays as cheap as in the seed engine.
func newSchema[S State](newState func() S) *Schema[S] {
	probe := newState()
	fs := probe.Fields()
	sc := &Schema[S]{
		newState: newState,
		nf:       len(fs),
		scalarIn: make([]bool, len(fs)),
		scalarTr: make([]bool, len(fs)),
	}
	for i, f := range fs {
		_, sc.scalarIn[i] = f.(scalarInput)
		_, sc.scalarTr[i] = f.(scalarTransfer)
	}
	// The probe state becomes the pool's first container.
	sc.allocated.Add(1)
	sc.pool.Put(&pathState[S]{s: probe, fs: fs})
	return sc
}

// NumFields returns the number of symbolic fields in the plan.
func (sc *Schema[S]) NumFields() int { return sc.nf }

// Allocated returns the number of path-state containers created so far.
// Pooled operation keeps it near the peak number of simultaneously live
// paths; it is a lower bound on — not a census of — live memory, since
// sync.Pool may drop containers under GC.
func (sc *Schema[S]) Allocated() int64 { return sc.allocated.Load() }

// get returns a pooled or fresh container. The state's contents are
// whatever the previous user left; callers overwrite via CopyFrom or
// ResetSymbolic before use.
func (sc *Schema[S]) get() *pathState[S] {
	if v := sc.pool.Get(); v != nil {
		return v.(*pathState[S])
	}
	return sc.newContainer()
}

// newContainer builds a container around a new initial state, outside
// the pool: what a pool miss falls back to, and what a fold site draws
// the few containers it keeps for its lifetime from.
func (sc *Schema[S]) newContainer() *pathState[S] {
	sc.allocated.Add(1)
	s := sc.newState()
	fs := s.Fields()
	if len(fs) != sc.nf {
		fail(ErrStateMismatch)
	}
	return &pathState[S]{s: s, fs: fs}
}

// put retires a container to the pool. Safe even while other states
// alias its slice-valued fields: a recycled container's next user
// overwrites every field before appending to any (get's contract:
// CopyFrom, ResetSymbolic or Decode), and those either install a
// clipped view (SymVector/SymIntVector — see SymVector on who may hold
// spare capacity), copy on append (SymPred) or replace whole slice
// headers, so it can never scribble over data a live path still
// references.
func (sc *Schema[S]) put(p *pathState[S]) {
	if p != nil {
		sc.pool.Put(p)
	}
}

// cloneOf deep-copies src into a pooled container.
func (sc *Schema[S]) cloneOf(src *pathState[S]) *pathState[S] {
	dst := sc.get()
	if len(src.fs) != len(dst.fs) {
		fail(ErrStateMismatch)
	}
	dst.copyFrom(src)
	return dst
}

// copyFrom overwrites every field of p with src's.
func (p *pathState[S]) copyFrom(src *pathState[S]) {
	for i, f := range p.fs {
		f.CopyFrom(src.fs[i])
	}
}

// fresh returns a pooled container reset to the fully symbolic state:
// every field an unconstrained symbolic input named by its index.
func (sc *Schema[S]) fresh() *pathState[S] {
	p := sc.get()
	for i, f := range p.fs {
		f.ResetSymbolic(i)
	}
	return p
}

// wrap adopts an externally built state into a container, capturing its
// field slice once.
func wrapState[S State](s S) *pathState[S] {
	return &pathState[S]{s: s, fs: s.Fields()}
}

// captureSymEnv fills e with the scalar transfer functions of the path
// fields fs, reusing e's entry slice, driven by the schema's capability
// plan instead of per-field type assertions on the miss side.
func (sc *Schema[S]) captureSymEnv(e *SymEnv, fs []Value) {
	if cap(e.entries) < len(fs) {
		e.entries = make([]symEnvEntry, len(fs))
	}
	e.entries = e.entries[:len(fs)]
	for i, f := range fs {
		if !sc.scalarTr[i] {
			e.entries[i] = symEnvEntry{}
			continue
		}
		bound, a, b := f.(scalarTransfer).transfer()
		e.entries[i] = symEnvEntry{ok: true, bound: bound, a: a, b: b}
	}
}

// captureEnv fills e with the concrete scalar inputs of fs, reusing e's
// slices.
func (sc *Schema[S]) captureEnv(e *Env, fs []Value) {
	if cap(e.ints) < len(fs) {
		e.ints = make([]int64, len(fs))
		e.ok = make([]bool, len(fs))
	}
	e.ints = e.ints[:len(fs)]
	e.ok = e.ok[:len(fs)]
	for i, f := range fs {
		if !sc.scalarIn[i] {
			e.ints[i], e.ok[i] = 0, false
			continue
		}
		e.ints[i], e.ok[i] = f.(scalarInput).concreteInput()
	}
}

// allConcreteFields reports whether no field depends on symbolic input,
// in which case running the UDA on the state cannot fork and needs no
// cloning — the paper's "once bound, as fast as the concrete type but
// for the bound check" fast path.
func allConcreteFields(fs []Value) bool {
	for _, f := range fs {
		if !f.IsConcrete() {
			return false
		}
	}
	return true
}

// tryMergeFields merges path b into path a when sound: every field pair
// must have an identical transfer function, and the constraints may
// differ in at most one field whose union is canonical (the union of two
// boxes differing in one dimension is a box). Reports whether the merge
// happened; a is mutated only on success.
func tryMergeFields(af, bf []Value) bool {
	if len(af) != len(bf) {
		fail(ErrStateMismatch)
	}
	for i := range af {
		if !af[i].SameTransfer(bf[i]) {
			return false
		}
	}
	diff := -1
	for i := range af {
		if !af[i].ConstraintEq(bf[i]) {
			if diff >= 0 {
				return false
			}
			diff = i
		}
	}
	if diff < 0 {
		return true
	}
	return af[diff].UnionConstraint(bf[diff])
}

// mergePathStates repeatedly merges path pairs until no pair merges,
// returning the compacted slice (paper §3.5) and recycling absorbed
// paths into the pool. Path counts are small (bounded by the live-path
// cap), so the quadratic scan is cheap. sc may be nil for summaries
// built outside a schema; absorbed paths then fall to the GC.
func mergePathStates[S State](sc *Schema[S], paths []*pathState[S]) ([]*pathState[S], int) {
	merged := 0
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if tryMergeFields(paths[i].fs, paths[j].fs) {
				if sc != nil {
					sc.put(paths[j])
				}
				paths[j] = paths[len(paths)-1]
				paths = paths[:len(paths)-1]
				merged++
				j--
			}
		}
	}
	return paths, merged
}

// captureSymEnvInto is captureSymEnv without a schema plan (per-field
// type assertions instead of the precomputed capability bits), for
// summary composition outside an executor.
func captureSymEnvInto(e *SymEnv, fs []Value) {
	if cap(e.entries) < len(fs) {
		e.entries = make([]symEnvEntry, len(fs))
	}
	e.entries = e.entries[:len(fs)]
	for i, f := range fs {
		st, ok := f.(scalarTransfer)
		if !ok {
			e.entries[i] = symEnvEntry{}
			continue
		}
		bound, a, b := st.transfer()
		e.entries[i] = symEnvEntry{ok: true, bound: bound, a: a, b: b}
	}
}

// admitsFields is admits over captured field slices.
func admitsFields(pf, cf []Value) bool {
	if len(pf) != len(cf) {
		fail(ErrStateMismatch)
	}
	for i := range pf {
		if !pf[i].Admits(cf[i]) {
			return false
		}
	}
	return true
}
