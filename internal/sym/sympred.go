package sym

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// SymPred is the black-box predicate holder of paper §4.4: a possibly
// symbolic value of type T supporting exactly two operations — assigning a
// concrete T, and evaluating a pre-specified arbitrary predicate
// pred(held, arg) against a concrete T.
//
// While the held value is still the unknown input x, EvalPred cannot
// reason symbolically (the predicate is a black box), so it blindly
// explores both outcomes, recording the assumption (arg, outcome) as the
// path constraint. At composition time the predicate is simply evaluated
// on the now-concrete previous value to check each assumption. UDAs with
// windowed dependence assign a concrete value on the first record of the
// chunk in every branch, so the blowup is bounded by 2 per chunk — the
// pattern all the paper's Pred queries follow (window of size one).
type SymPred[T any] struct {
	id      int
	pred    func(held, arg T) bool
	codec   Codec[T]
	bound   bool
	val     T
	assumps []predAssump[T]
}

type predAssump[T any] struct {
	arg     T
	outcome bool
}

// NewSymPred returns a SymPred holding the concrete initial value v,
// evaluating pred, with codec used for serialization and merge equality.
func NewSymPred[T any](pred func(held, arg T) bool, codec Codec[T], v T) SymPred[T] {
	return SymPred[T]{pred: pred, codec: codec, bound: true, val: v}
}

// EvalPred evaluates the black-box predicate between the held value and
// the concrete argument. While the held value is symbolic both outcomes
// are explored blindly and the assumption recorded.
func (v *SymPred[T]) EvalPred(ctx *Ctx, arg T) bool {
	if v.bound {
		return v.pred(v.val, arg)
	}
	outcome := ctx.Fork()
	v.assumps = append(v.assumps[:len(v.assumps):len(v.assumps)],
		predAssump[T]{arg: arg, outcome: outcome})
	return outcome
}

// SetValue binds the held value to the concrete v.
func (v *SymPred[T]) SetValue(val T) {
	v.bound, v.val = true, val
}

// Get returns the held concrete value, aborting the path if symbolic.
func (v *SymPred[T]) Get() T {
	if !v.bound {
		fail(ErrSymbolicRead)
	}
	return v.val
}

// TryGet returns the held value and whether it is bound.
func (v *SymPred[T]) TryGet() (T, bool) { return v.val, v.bound }

// ResetSymbolic implements Value.
func (v *SymPred[T]) ResetSymbolic(id int) {
	v.id = id
	v.bound = false
	var zero T
	v.val = zero
	v.assumps = nil
}

// CopyFrom implements Value.
func (v *SymPred[T]) CopyFrom(src Value) {
	s := src.(*SymPred[T])
	v.id, v.bound, v.val = s.id, s.bound, s.val
	// Assumption slices are shared copy-on-append (see EvalPred's
	// three-index slice expression), so a shallow copy is safe.
	v.assumps = s.assumps
	if s.pred != nil {
		v.pred = s.pred
	}
	if s.codec.Encode != nil {
		v.codec = s.codec
	}
}

// IsConcrete implements Value.
func (v *SymPred[T]) IsConcrete() bool { return v.bound }

// SameTransfer implements Value.
func (v *SymPred[T]) SameTransfer(other Value) bool {
	o := other.(*SymPred[T])
	if v.bound != o.bound {
		return false
	}
	return !v.bound || v.codec.Equal(v.val, o.val)
}

// ConstraintEq implements Value.
func (v *SymPred[T]) ConstraintEq(other Value) bool {
	o := other.(*SymPred[T])
	if len(v.assumps) != len(o.assumps) {
		return false
	}
	for i, a := range v.assumps {
		if a.outcome != o.assumps[i].outcome || !v.codec.Equal(a.arg, o.assumps[i].arg) {
			return false
		}
	}
	return true
}

// UnionConstraint implements Value. A disjunction of two distinct
// assumption lists has no canonical form, so union succeeds only on
// identical constraints.
func (v *SymPred[T]) UnionConstraint(other Value) bool {
	return v.ConstraintEq(other)
}

// Admits implements Value: every recorded assumption must agree with the
// predicate evaluated on the concrete previous value.
func (v *SymPred[T]) Admits(prev Value) bool {
	p := prev.(*SymPred[T])
	if !p.bound {
		fail(ErrSymbolicRead)
	}
	for _, a := range v.assumps {
		if v.pred(p.val, a.arg) != a.outcome {
			return false
		}
	}
	return true
}

// Concretize implements Value.
func (v *SymPred[T]) Concretize(prev Value, _ *Env) {
	p := prev.(*SymPred[T])
	if !v.bound {
		v.bound, v.val = true, p.val
	}
	v.assumps = nil
	v.id = p.id
}

// ComposeAfter implements Value. A SymPred's transfer is identity (while
// unbound) or constant, so composition either resolves this path's
// assumptions against prev's concrete value, or — when prev is also
// unbound — concatenates assumption lists over the same input.
func (v *SymPred[T]) ComposeAfter(prev Value, _ *SymEnv) bool {
	p := prev.(*SymPred[T])
	if p.bound {
		for _, a := range v.assumps {
			if v.pred(p.val, a.arg) != a.outcome {
				return false
			}
		}
		if !v.bound {
			v.bound, v.val = true, p.val
		}
		v.assumps = p.assumps
	} else {
		merged := make([]predAssump[T], 0, len(p.assumps)+len(v.assumps))
		merged = append(merged, p.assumps...)
		merged = append(merged, v.assumps...)
		v.assumps = merged
	}
	v.id = p.id
	return true
}

// Encode implements Value.
func (v *SymPred[T]) Encode(e *wire.Encoder) { v.encodeBody(e, true) }

// tagMatches implements taglessCodec.
func (v *SymPred[T]) tagMatches(pos int) bool { return v.id == pos }

// encodeTagless implements taglessCodec.
func (v *SymPred[T]) encodeTagless(e *wire.Encoder) { v.encodeBody(e, false) }

func (v *SymPred[T]) encodeBody(e *wire.Encoder, withTag bool) {
	e.Bool(v.bound)
	if withTag {
		e.Uvarint(uint64(v.id))
	}
	if v.bound {
		v.codec.Encode(e, v.val)
	}
	e.Uvarint(uint64(len(v.assumps)))
	for _, a := range v.assumps {
		e.Bool(a.outcome)
		v.codec.Encode(e, a.arg)
	}
}

// Decode implements Value. The receiver must have been constructed with
// the predicate and codec (they are code, not data, and do not travel).
func (v *SymPred[T]) Decode(d *wire.Decoder) error { return v.decodeBody(d, -1) }

// decodeTagless implements taglessCodec.
func (v *SymPred[T]) decodeTagless(d *wire.Decoder, pos int) error { return v.decodeBody(d, pos) }

func (v *SymPred[T]) decodeBody(d *wire.Decoder, pos int) error {
	if v.pred == nil || v.codec.Decode == nil {
		return fmt.Errorf("sym: decoding SymPred without predicate/codec")
	}
	v.bound = d.Bool()
	if pos >= 0 {
		v.id = pos
	} else {
		v.id = d.Length(maxFieldID)
	}
	var zero T
	v.val = zero
	if v.bound {
		v.val = v.codec.Decode(d)
	}
	const maxAssumps = 1 << 20
	n := d.Length(maxAssumps)
	if err := d.Err(); err != nil {
		return err
	}
	v.assumps = slices.Grow(v.assumps[:0], n)[:n]
	for i := range v.assumps {
		v.assumps[i].outcome = d.Bool()
		v.assumps[i].arg = v.codec.Decode(d)
	}
	return d.Err()
}

// String implements Value.
func (v *SymPred[T]) String() string {
	s := "true"
	if len(v.assumps) > 0 {
		s = fmt.Sprintf("%d assumption(s) on x%d", len(v.assumps), v.id)
	}
	if v.bound {
		return fmt.Sprintf("%s ⇒ %v", s, v.val)
	}
	return fmt.Sprintf("%s ⇒ x%d", s, v.id)
}

var (
	_ Value        = (*SymPred[int64])(nil)
	_ taglessCodec = (*SymPred[int64])(nil)
)
