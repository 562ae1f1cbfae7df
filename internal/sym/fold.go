package sym

import "fmt"

// Fold is the one way an ordered summary list becomes a state: it holds
// the concrete prefix state and applies summaries onto it left to right,
// the evaluation S_n(…S_2(S_1(c))…) of paper §3.6. A summary is a monoid
// element with two operations — compose with another summary
// (ComposeAll) and act on a state (Fold) — and every reducer, the
// worker-resident reduce, the query service's standing sessions,
// StreamComposer and ApplyAll all act through this type.
//
// Applying onto a concrete state costs O(paths) per summary and cannot
// hit a path cap, where summary∘summary composition is a cross product
// that can; so the fold never pre-composes.
//
// A Fold is not safe for concurrent use.
type Fold[S State] struct {
	// sc recycles superseded states; nil leaves them to the GC and marks
	// a fold over a caller-owned start state (ApplyAll).
	sc    *Schema[S]
	state *pathState[S]
	// scratch backs AddBundle's decoded list between calls.
	scratch []*Summary[S]
}

// NewFold starts a fold from the schema's initial state. Superseded
// states circulate through sc's pool — share the schema that decodes (or
// whose executors produce) the summaries so the fold runs on one arena.
func NewFold[S State](sc *Schema[S]) *Fold[S] {
	return &Fold[S]{sc: sc, state: wrapState(sc.newState())}
}

// State returns the state folded so far. It must not be mutated and is
// invalidated by the next successful Add.
func (f *Fold[S]) State() S { return f.state.s }

// Add applies the ordered summaries onto the state and takes ownership
// of them: on success they are released to their schema pool and the
// superseded state is recycled. On error (no path of a summary admits
// the state) the fold's state is exactly what it was before the call
// and the summaries remain the caller's.
func (f *Fold[S]) Add(sums []*Summary[S]) error {
	if err := f.apply(sums); err != nil {
		return err
	}
	for _, s := range sums {
		s.Release()
	}
	return nil
}

// AddBundle decodes one encoded summary bundle (Schema.EncodeSummaryBundle)
// into pooled summaries and Adds them, returning how many it folded. A
// corrupt bundle is rejected before anything is applied.
func (f *Fold[S]) AddBundle(data []byte) (int, error) {
	sums, err := f.sc.DecodeSummaryBundle(f.scratch[:0], data)
	if err != nil {
		return 0, err
	}
	n := len(sums)
	err = f.Add(sums)
	for i := range sums {
		sums[i] = nil
	}
	f.scratch = sums
	return n, err
}

// apply is Add without consuming the summaries. Intermediate states are
// built on a working copy, so an error leaves f.state untouched.
func (f *Fold[S]) apply(sums []*Summary[S]) (err error) {
	cur := f.state
	// retire recycles a state the fold has moved past; the committed
	// state stays live until the whole list has applied.
	retire := func(p *pathState[S]) {
		if f.sc != nil && p != f.state {
			f.sc.put(p)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fl, ok := r.(failure)
			if !ok {
				panic(r)
			}
			retire(cur)
			err = fl.err
		}
	}()
	for i, s := range sums {
		next, aerr := s.applyPS(cur)
		retire(cur)
		if aerr != nil {
			return fmt.Errorf("sym: applying summary %d/%d: %w", i+1, len(sums), aerr)
		}
		cur = next
	}
	if cur != f.state {
		if f.sc != nil {
			f.sc.put(f.state)
		}
		f.state = cur
	}
	return nil
}
