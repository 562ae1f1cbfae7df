package sym

import (
	"fmt"

	"repro/internal/wire"
)

// Folder is a fold site: the one way an ordered list of bundles becomes a
// state, the evaluation S_n(…S_2(S_1(c))…) of paper §3.6. The site owns
// the machinery — the containers a bundle decodes into, two spare
// states, the storage the spares' vectors grow into, the Env — and a key
// owns only its FoldState, so a reduce task or a serve session folds
// every key through one Folder. A key's group folds in one call (Fold)
// onto one working spare, committed by swap after the last bundle: a
// summary is decoded, its admitting path CopyFrom'd and Concretized
// against the working state into the other spare, and events run Update
// on the working spare. The state the site last Reset keeps the site's
// vector storage until the next Reset reclaims it; any other state a call
// commits gets arrays of its own (see Value on storage). Folding onto a
// concrete state costs O(paths) per summary and never hits a path cap,
// so the fold never pre-composes.
//
// A Folder and the states it folds are not safe for concurrent use.
type Folder[S State] struct {
	sc *Schema[S]
	// initial is the query's start state; Reset copies it, nothing
	// writes it.
	initial *pathState[S]
	// spare are the two working states a call ping-pongs between. With
	// the committed state that is three, which is enough: a summary step
	// reads one and writes another, events write the spare they are on,
	// and the committed one is never written.
	spare [2]*pathState[S]
	// vecs is what the spares' vectors grow into; resident, the state
	// last Reset, is the one committed state that may view it.
	vecs     vecArena
	resident *pathState[S]
	env      Env
	ctx      Ctx // runs Update for an event bundle
	dec      wire.Decoder
	// paths[:ends[len(ends)-1]] hold the decoded bundle, summary i's
	// paths ending at ends[i]; the containers persist across calls and
	// every Decode overwrites one in full, in storage of its own.
	paths []*pathState[S]
	ends  []int
}

// FoldState is one key's concrete state at a fold site: the user state
// with its field slice captured once (a container, by its public name).
type FoldState[S State] pathState[S]

// State returns the state folded so far. It must not be mutated, and
// the next successful fold onto (or Reset of) this FoldState
// invalidates it — read what outlives that (Query.Result) first.
func (st *FoldState[S]) State() S { return st.s }

// Encode appends the canonical form of every field of the state to e.
func (st *FoldState[S]) Encode(e *wire.Encoder) {
	for _, v := range st.fs {
		v.Encode(e)
	}
}

// NewFolder starts a fold site for the schema's state type.
func NewFolder[S State](sc *Schema[S]) *Folder[S] { return &Folder[S]{sc: sc} }

// NewState returns a key's state holding the query's initial state.
func (f *Folder[S]) NewState() *FoldState[S] {
	return (*FoldState[S])(f.sc.newContainer())
}

// Reset returns st to the initial state, so one FoldState serves every
// key of a partition in turn, and reclaims the site's vector storage for
// st, the previous holder, if another, first getting arrays of its own.
// What a Result took stays valid: SymIntVector.Elems copies, and
// SymVector's arrays are its own.
func (f *Folder[S]) Reset(st *FoldState[S]) {
	if f.initial == nil {
		f.initial = f.sc.newContainer()
	}
	p := (*pathState[S])(st)
	if f.resident != nil && f.resident != p {
		f.sc.detach(f.resident, nil)
	}
	f.resident = p
	f.vecs.reset()
	p.copyFrom(f.initial)
}

// Add applies the ordered summaries onto st. The summaries are borrowed.
// On error (no path of a summary admits the state) st is exactly what it
// was before the call.
func (f *Folder[S]) Add(st *FoldState[S], sums []*Summary[S]) (err error) {
	defer catchFailure(&err)
	cur := (*pathState[S])(st)
	for i, s := range sums {
		if cur, err = f.step(cur, s.ps, i, len(sums)); err != nil {
			return fmt.Errorf("sym: %w", err)
		}
	}
	f.commit(st, cur)
	return nil
}

// Fold folds the ordered encoded bundles (bundle.go) — a key's whole
// reduce group, or one bundle — from src onto dst: dst becomes src with
// every bundle applied, and src, when it is not dst, is only read, so
// fold sites may fold from one frozen state at once. Events that open
// the group run on a copy of src. A corrupt or failing bundle anywhere
// (a summary list is decoded whole before any of it applies) leaves dst
// as it was.
func (f *Folder[S]) Fold(dst, src *FoldState[S], bundles ...[]byte) (err error) {
	defer catchFailure(&err)
	cur := (*pathState[S])(src)
	for i, data := range bundles {
		if cur, err = f.add(cur, data); err != nil {
			return fmt.Errorf("sym: bundle %d/%d: %w", i+1, len(bundles), err)
		}
	}
	if len(bundles) == 0 {
		cur = f.spareOff(cur)
		cur.copyFrom((*pathState[S])(src))
	}
	f.commit(dst, cur)
	return nil
}

// add applies one bundle to cur and returns the state holding the
// result, a spare. cur is written only when it is a spare itself.
func (f *Folder[S]) add(cur *pathState[S], data []byte) (*pathState[S], error) {
	events, err := f.decode(data)
	if err != nil {
		return nil, err
	}
	if events == 0 {
		lo := 0
		for i, hi := range f.ends {
			if cur, err = f.step(cur, f.paths[lo:hi], i, len(f.ends)); err != nil {
				return nil, err
			}
			lo = hi
		}
		return cur, nil
	}
	if cur != f.spare[0] && cur != f.spare[1] {
		out := f.spareOff(cur)
		out.copyFrom(cur)
		cur = out
	}
	for i := 0; i < events; i++ {
		if err := f.sc.applyEvent(&f.ctx, cur.s, &f.dec); err != nil {
			return nil, fmt.Errorf("event %d/%d: %w", i+1, events, err)
		}
	}
	if d := &f.dec; d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d events", wire.ErrCorrupt, d.Remaining(), events)
	}
	return cur, nil
}

// step applies summary i of n, given as its paths, to cur and returns
// the spare holding the result. cur is only read.
func (f *Folder[S]) step(cur *pathState[S], paths []*pathState[S], i, n int) (*pathState[S], error) {
	for _, p := range paths {
		if !admitsFields(p.fs, cur.fs) {
			continue
		}
		out := f.spareOff(cur)
		f.sc.captureEnv(&f.env, cur.fs)
		for fi, v := range out.fs {
			v.CopyFrom(p.fs[fi])
			v.Concretize(cur.fs[fi], &f.env)
		}
		return out, nil
	}
	return nil, fmt.Errorf("applying summary %d/%d: %w", i+1, n, ErrNoPath)
}

// spareOff returns the spare cur is not, built at first need and bound
// to the site's storage: it may hold a state a call committed before.
func (f *Folder[S]) spareOff(cur *pathState[S]) *pathState[S] {
	i := 0
	if cur == f.spare[0] {
		i = 1
	}
	if f.spare[i] == nil {
		f.spare[i] = f.sc.newContainer()
	}
	f.sc.bind(f.spare[i], &f.vecs)
	return f.spare[i]
}

// commit swaps the spare a call ended on with the key's state. A state
// other than the resident one gets arrays of its own, and when no state
// is resident nothing views the site's storage any more.
func (f *Folder[S]) commit(st *FoldState[S], cur *pathState[S]) {
	p := (*pathState[S])(st)
	if cur != p {
		*p, *cur = *cur, *p
	}
	if p != f.resident {
		f.sc.detach(p, nil)
		if f.resident == nil {
			f.vecs.reset()
		}
	}
}

// decode reads one bundle: a summary list into f.paths/f.ends, or, for
// an event bundle, only its event count — events reports it, and f.dec
// is left at the first event for the schema's codec. Trailing bytes are
// an error: a bundle is a complete unit, not a stream prefix.
func (f *Folder[S]) decode(data []byte) (events int, err error) {
	d := &f.dec
	d.Reset(data)
	n := d.Length(d.Remaining() + 1)
	if err := d.Err(); err != nil {
		return 0, err
	}
	if n == 0 {
		if f.sc.applyEvent == nil {
			return 0, fmt.Errorf("%w: an event bundle, but the query has no event codec", wire.ErrCorrupt)
		}
		// Capped before any event is read: a forged count over a zero-byte
		// codec could otherwise ask for any number of Update runs.
		if events = d.Length(maxEventGroup); d.Err() == nil && events == 0 {
			return 0, fmt.Errorf("%w: an event bundle of no events", wire.ErrCorrupt)
		}
		return events, d.Err()
	}
	f.ends = f.ends[:0]
	used := 0
	for i := 0; i < n; i++ {
		np, tagless, err := decodeSummaryHeader(d)
		for j := 0; j < np && err == nil; j++ {
			if used == len(f.paths) {
				f.paths = append(f.paths, f.sc.newContainer())
			}
			err = decodePath(d, f.paths[used], tagless, j)
			used++
		}
		if err != nil {
			return 0, fmt.Errorf("summary %d/%d: %w", i+1, n, err)
		}
		f.ends = append(f.ends, used)
	}
	if d.Remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after summary bundle", wire.ErrCorrupt, d.Remaining())
	}
	return 0, nil
}

// catchFailure turns an aborted symbolic operation (fail) into the
// error it carries; deferred by every entry point that runs Value code.
func catchFailure(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}
