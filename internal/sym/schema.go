package sym

import (
	"slices"
	"sync/atomic"

	"repro/internal/wire"
)

// Schema is the compiled field plan of one State type: everything the
// runtime needs to clone, merge, compose, apply and serialize states of
// that shape without calling State.Fields, which allocates, on the hot
// path. It walks the type once and pins the field count and the
// per-field capability plan; containers built on it capture their field
// slice once. A Schema is a plan, not a store: the sites keep the
// containers and storage they work in (Executor, Folder). Share one
// schema across every site and summary of a query; it is safe for
// concurrent use (immutable but for an atomic counter).
type Schema[S State] struct {
	newState func() S
	nf       int
	// scalarIn[i] / scalarTr[i] record whether field i implements
	// scalarInput / scalarTransfer; vecs lists the SymIntVector fields.
	scalarIn []bool
	scalarTr []bool
	vecs     []int
	// The query's event codec (NewEventSchema), nil without one:
	// applyEvent decodes the next event d holds and only then runs Update
	// with it on s; encodeEvent is the func(*wire.Encoder, E) an Executor
	// of the event type ships events with.
	applyEvent  func(ctx *Ctx, s S, d *wire.Decoder) error
	encodeEvent any

	// allocated counts containers ever built on the plan (Allocated).
	allocated atomic.Int64
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
	fs := newState().Fields()
	sc := &Schema[S]{
		newState: newState,
		nf:       len(fs),
		scalarIn: make([]bool, len(fs)),
		scalarTr: make([]bool, len(fs)),
	}
	for i, f := range fs {
		_, sc.scalarIn[i] = f.(scalarInput)
		_, sc.scalarTr[i] = f.(scalarTransfer)
		if _, ok := f.(*SymIntVector); ok {
			sc.vecs = append(sc.vecs, i)
		}
	}
	return sc
}

// NumFields returns the number of symbolic fields in the plan.
func (sc *Schema[S]) NumFields() int { return sc.nf }

// Allocated returns the number of path-state containers built on the
// plan so far, by every site and snapshot. A site in steady state builds
// none: its stack already holds its peak working set.
func (sc *Schema[S]) Allocated() int64 { return sc.allocated.Load() }

// newContainer builds a container around a new initial state: what a
// site's empty stack falls back to, and what snapshots (Finish,
// ComposeWith) are made of.
func (sc *Schema[S]) newContainer() *pathState[S] {
	sc.allocated.Add(1)
	s := sc.newState()
	fs := s.Fields()
	if len(fs) != sc.nf {
		fail(ErrStateMismatch)
	}
	return &pathState[S]{s: s, fs: fs}
}

// containers is a site's private stack of path containers (an
// Executor's; a composition's, for its duration): a slice push and pop,
// no lock, building on the schema only when empty and binding what it
// builds to vecs. Retiring a container while live paths view its
// storage is safe: its next user overwrites every field before it
// appends (CopyFrom clips, SymPred copies on append), and the storage in
// vecs is reclaimed only when the site's key is done (Executor.Reset).
type containers[S State] struct {
	sc   *Schema[S]
	free []*pathState[S]
	vecs *vecArena // what built containers' vectors grow into; nil: the heap
}

// get returns a retired or new container. Its contents are whatever the
// previous user left; callers overwrite via CopyFrom or ResetSymbolic.
func (c *containers[S]) get() *pathState[S] {
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		return p
	}
	p := c.sc.newContainer()
	c.sc.bind(p, c.vecs)
	return p
}

// put retires a container no live path references; putAll, a list.
func (c *containers[S]) put(p *pathState[S])       { c.free = append(c.free, p) }
func (c *containers[S]) putAll(ps []*pathState[S]) { c.free = append(c.free, ps...) }

// cloneOf deep-copies src into a container.
func (c *containers[S]) cloneOf(src *pathState[S]) *pathState[S] {
	dst := c.get()
	if len(src.fs) != len(dst.fs) {
		fail(ErrStateMismatch)
	}
	dst.copyFrom(src)
	return dst
}

// fresh returns a container reset to the fully symbolic state: every
// field an unconstrained symbolic input named by its index.
func (c *containers[S]) fresh() *pathState[S] {
	p := c.get()
	p.resetSymbolic()
	return p
}

// copyFrom overwrites every field of p with src's.
func (p *pathState[S]) copyFrom(src *pathState[S]) {
	for i, f := range p.fs {
		f.CopyFrom(src.fs[i])
	}
}

// resetSymbolic makes p the fully symbolic state.
func (p *pathState[S]) resetSymbolic() {
	for i, f := range p.fs {
		f.ResetSymbolic(i)
	}
}

// wrapState adopts an externally built state into a container,
// capturing its field slice once.
func wrapState[S State](s S) *pathState[S] {
	return &pathState[S]{s: s, fs: s.Fields()}
}

// bind makes a the storage p's vectors grow into; detach moves their
// elements, for a path that outlives the site's key, into into.
func (sc *Schema[S]) bind(p *pathState[S], a *vecArena) {
	for _, i := range sc.vecs {
		p.fs[i].(*SymIntVector).site = a
	}
}

func (sc *Schema[S]) detach(p *pathState[S], into *vecArena) {
	for _, i := range sc.vecs {
		p.fs[i].(*SymIntVector).detach(into)
	}
}

// vecArena is the storage of the vectors a site works in; nil is the heap.
type vecArena struct {
	vals  arena[int64]
	slots arena[symSlot]
}

func (a *vecArena) ints(s []int64, n int) []int64 {
	if a == nil {
		return slices.Grow(s, n)
	}
	return a.vals.grow(s, n)
}

func (a *vecArena) symSlots(s []symSlot, n int) []symSlot {
	if a == nil {
		return slices.Grow(s, n)
	}
	return a.slots.grow(s, n)
}

// reset reclaims every region: the site's key is done, nothing views it.
func (a *vecArena) reset() { a.vals.top, a.slots.top = 0, 0 }

// arena hands out regions of one slab front to back, each, spare
// capacity included, its taker's alone until reset. A full slab is left
// to the values viewing it for one twice its size, so a warm site's slab
// holds a key's working set.
type arena[T any] struct {
	slab []T
	top  int
}

// grow returns s with room for n more elements: s itself when it has
// it, s extended in place when it is the last region taken, else s
// copied into a new region twice its length.
func (a *arena[T]) grow(s []T, n int) []T {
	need, c := len(s)+n, cap(s)
	if need <= c {
		return s
	}
	if c > 0 && a.top >= c && &s[:c][c-1] == &a.slab[a.top-1] {
		if start, end := a.top-c, a.top-c+max(need, 2*c); end <= len(a.slab) {
			a.top = end
			return a.slab[start : start+len(s) : end]
		}
	}
	size := max(need, 2*len(s), 4)
	if a.top+size > len(a.slab) {
		a.slab, a.top = make([]T, max(2*len(a.slab), 2*size, 64)), 0
	}
	r := a.slab[a.top : a.top+len(s) : a.top+size]
	a.top += size
	copy(r, s)
	return r
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

// merge repeatedly merges path pairs until no pair merges, returning the
// compacted slice (paper §3.5) and how many paths it absorbed; their
// containers retire to c. Path counts are small (bounded by the
// live-path cap), so the quadratic scan is cheap.
func (c *containers[S]) merge(paths []*pathState[S]) ([]*pathState[S], int) {
	merged := 0
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if tryMergeFields(paths[i].fs, paths[j].fs) {
				c.put(paths[j])
				paths[j] = paths[len(paths)-1]
				paths = paths[:len(paths)-1]
				merged++
				j--
			}
		}
	}
	return paths, merged
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
