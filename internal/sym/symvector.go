package sym

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/wire"
)

// SymVector is an append-only vector of concrete elements of type T
// (paper §4.5, inspired by Cilk reducer hyperobjects). Each chunk's UDA
// execution appends to its local vector; composition stitches the local
// vectors in chunk order. A SymVector places no constraint on the unknown
// initial state — its "transfer function" is always
// "previous contents ++ local appends".
//
// Use SymIntVector instead when appended elements can themselves be
// symbolic (e.g. a count that is still a·x+b when pushed).
//
// Forked paths share a backing array (CopyFrom copies the slice header,
// not the elements) under one invariant: at most one holder has spare
// capacity over it. CopyFrom clips the receiver to its length, so the
// copy's first Push reallocates while the source keeps appending in
// place — past every clipped view's length, where no other holder can
// see. Push is therefore plain append, amortised O(1); a vector value
// must only ever be duplicated through CopyFrom, never by struct
// assignment, or two holders would append into the same spare slots.
// SymIntVector follows the same rule.
type SymVector[T any] struct {
	codec Codec[T]
	elems []T
}

// NewSymVector returns an empty SymVector using codec for serialization
// and merge equality.
func NewSymVector[T any](codec Codec[T]) SymVector[T] {
	return SymVector[T]{codec: codec}
}

// Push appends a concrete element.
func (v *SymVector[T]) Push(e T) { v.elems = append(v.elems, e) }

// Elems returns the vector contents. The slice must not be mutated.
func (v *SymVector[T]) Elems() []T { return v.elems }

// Len returns the number of elements.
func (v *SymVector[T]) Len() int { return len(v.elems) }

// ResetSymbolic implements Value.
func (v *SymVector[T]) ResetSymbolic(int) { v.elems = nil }

// CopyFrom implements Value.
func (v *SymVector[T]) CopyFrom(src Value) {
	s := src.(*SymVector[T])
	v.elems = s.elems[:len(s.elems):len(s.elems)] // clipped: see the type comment
	if s.codec.Encode != nil {
		v.codec = s.codec
	}
}

// IsConcrete implements Value: elements are always concrete.
func (v *SymVector[T]) IsConcrete() bool { return true }

// SameTransfer implements Value: the transfer is the local append list.
func (v *SymVector[T]) SameTransfer(other Value) bool {
	o := other.(*SymVector[T])
	if len(v.elems) != len(o.elems) {
		return false
	}
	for i := range v.elems {
		if !v.codec.Equal(v.elems[i], o.elems[i]) {
			return false
		}
	}
	return true
}

// ConstraintEq implements Value: vectors carry no constraint.
func (v *SymVector[T]) ConstraintEq(Value) bool { return true }

// UnionConstraint implements Value.
func (v *SymVector[T]) UnionConstraint(Value) bool { return true }

// Admits implements Value.
func (v *SymVector[T]) Admits(Value) bool { return true }

// Concretize implements Value: prepend the previous contents, in an
// array of the receiver's own — also when there are none: what the
// receiver holds is the storage of the path it was copied from, which a
// fold site decodes over (see Value on storage).
func (v *SymVector[T]) Concretize(prev Value, _ *Env) {
	v.elems = slices.Concat(prev.(*SymVector[T]).elems, v.elems)
}

// ComposeAfter implements Value.
func (v *SymVector[T]) ComposeAfter(prev Value, _ *SymEnv) bool {
	p := prev.(*SymVector[T])
	v.elems = concatElems(p.elems, v.elems)
	return true
}

func concatElems[T any](a, b []T) []T {
	if len(a) == 0 {
		return b
	}
	return slices.Concat(a, b)
}

// Encode implements Value.
func (v *SymVector[T]) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(v.elems)))
	for _, el := range v.elems {
		v.codec.Encode(e, el)
	}
}

// SymVector's wire form carries no field tag to elide, so the tagless
// form is the tagged one; implementing taglessCodec keeps a vector field
// from forcing the whole summary back to tagged encoding.

// tagMatches implements taglessCodec.
func (v *SymVector[T]) tagMatches(int) bool { return true }

// encodeTagless implements taglessCodec.
func (v *SymVector[T]) encodeTagless(e *wire.Encoder) { v.Encode(e) }

// decodeTagless implements taglessCodec.
func (v *SymVector[T]) decodeTagless(d *wire.Decoder, _ int) error { return v.Decode(d) }

// Decode implements Value.
func (v *SymVector[T]) Decode(d *wire.Decoder) error {
	if v.codec.Decode == nil {
		return fmt.Errorf("sym: decoding SymVector without codec")
	}
	n := d.Length(d.Remaining())
	if err := d.Err(); err != nil {
		return err
	}
	v.elems = slices.Grow(v.elems[:0], n)[:n]
	for i := range v.elems {
		v.elems[i] = v.codec.Decode(d)
	}
	return d.Err()
}

// String implements Value.
func (v *SymVector[T]) String() string {
	return fmt.Sprintf("vector(len=%d)", len(v.elems))
}

// intElem is one element of a SymIntVector: either a concrete int64, or
// the affine expression a·x(field)+b over another field's symbolic input.
type intElem struct {
	sym   bool
	field int
	a, b  int64 // concrete value in b when !sym
}

func (e intElem) String() string {
	if !e.sym {
		return fmt.Sprintf("%d", e.b)
	}
	return fmt.Sprintf("%d·x%d%+d", e.a, e.field, e.b)
}

// SymIntVector is an append-only vector of possibly symbolic int64
// values. Pushing a still-symbolic SymInt (or SymEnum) records the affine
// expression over that field's input; composition concretizes it once the
// referenced input resolves — the paper's example of appending a symbolic
// count x+5 that a later composition turns concrete (§4.5).
type SymIntVector struct {
	elems []intElem
}

// NewSymIntVector returns an empty SymIntVector.
func NewSymIntVector() SymIntVector { return SymIntVector{} }

// Push appends a concrete element.
func (v *SymIntVector) Push(val int64) {
	v.push(intElem{b: val})
}

// PushInt appends the current value of s, symbolic or not.
func (v *SymIntVector) PushInt(s *SymInt) {
	if s.bound {
		v.push(intElem{b: s.b})
		return
	}
	v.push(intElem{sym: true, field: s.id, a: s.a, b: s.b})
}

// PushEnum appends the current (integer) value of s, symbolic or not.
func (v *SymIntVector) PushEnum(s *SymEnum) {
	if s.bound {
		v.push(intElem{b: s.c})
		return
	}
	v.push(intElem{sym: true, field: s.id, a: 1, b: 0})
}

func (v *SymIntVector) push(e intElem) { v.elems = append(v.elems, e) }

// Len returns the number of elements.
func (v *SymIntVector) Len() int { return len(v.elems) }

// Elems returns the concrete contents; it aborts if any element is still
// symbolic (call only after full composition).
func (v *SymIntVector) Elems() []int64 {
	out := make([]int64, len(v.elems))
	for i, e := range v.elems {
		if e.sym {
			fail(ErrSymbolicRead)
		}
		out[i] = e.b
	}
	return out
}

// ResetSymbolic implements Value.
func (v *SymIntVector) ResetSymbolic(int) { v.elems = nil }

// CopyFrom implements Value.
func (v *SymIntVector) CopyFrom(src Value) {
	e := src.(*SymIntVector).elems
	v.elems = e[:len(e):len(e)] // clipped: see SymVector
}

// IsConcrete implements Value.
func (v *SymIntVector) IsConcrete() bool {
	for _, e := range v.elems {
		if e.sym {
			return false
		}
	}
	return true
}

// SameTransfer implements Value.
func (v *SymIntVector) SameTransfer(other Value) bool {
	o := other.(*SymIntVector)
	if len(v.elems) != len(o.elems) {
		return false
	}
	for i := range v.elems {
		if v.elems[i] != o.elems[i] {
			return false
		}
	}
	return true
}

// ConstraintEq implements Value.
func (v *SymIntVector) ConstraintEq(Value) bool { return true }

// UnionConstraint implements Value.
func (v *SymIntVector) UnionConstraint(Value) bool { return true }

// Admits implements Value.
func (v *SymIntVector) Admits(Value) bool { return true }

// Concretize implements Value: prepend the previous contents and resolve
// symbolic elements against the concrete inputs in env.
func (v *SymIntVector) Concretize(prev Value, env *Env) {
	p := prev.(*SymIntVector)
	out := make([]intElem, 0, len(p.elems)+len(v.elems))
	out = append(out, p.elems...)
	for _, e := range v.elems {
		if e.sym {
			x := env.Int(e.field)
			e = intElem{b: addChecked(mulChecked(e.a, x), e.b)}
		}
		out = append(out, e)
	}
	v.elems = out
}

// ComposeAfter implements Value: prepend prev's elements and rewrite
// symbolic elements through prev's per-field transfer functions.
func (v *SymIntVector) ComposeAfter(prev Value, senv *SymEnv) bool {
	p := prev.(*SymIntVector)
	out := make([]intElem, 0, len(p.elems)+len(v.elems))
	out = append(out, p.elems...)
	for _, e := range v.elems {
		if e.sym {
			t := senv.lookup(e.field)
			if t.bound {
				e = intElem{b: addChecked(mulChecked(e.a, t.b), e.b)}
			} else {
				// a·(ta·x+tb)+b = (a·ta)·x + (a·tb+b)
				e = intElem{
					sym:   true,
					field: e.field,
					a:     mulChecked(e.a, t.a),
					b:     addChecked(mulChecked(e.a, t.b), e.b),
				}
			}
		}
		out = append(out, e)
	}
	v.elems = out
	return true
}

// Encode implements Value.
func (v *SymIntVector) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(v.elems)))
	for _, el := range v.elems {
		e.Bool(el.sym)
		e.Varint(el.b)
		if el.sym {
			e.Uvarint(uint64(el.field))
			e.Varint(el.a)
		}
	}
}

// tagMatches implements taglessCodec (no tag to elide; see SymVector).
func (v *SymIntVector) tagMatches(int) bool { return true }

// encodeTagless implements taglessCodec.
func (v *SymIntVector) encodeTagless(e *wire.Encoder) { v.Encode(e) }

// decodeTagless implements taglessCodec.
func (v *SymIntVector) decodeTagless(d *wire.Decoder, _ int) error { return v.Decode(d) }

// Decode implements Value.
func (v *SymIntVector) Decode(d *wire.Decoder) error {
	n := d.Length(d.Remaining())
	if err := d.Err(); err != nil {
		return err
	}
	v.elems = slices.Grow(v.elems[:0], n)[:n]
	for i := range v.elems {
		e := intElem{sym: d.Bool(), b: d.Varint()}
		if e.sym {
			e.field = d.Length(maxFieldID)
			e.a = d.Varint()
		}
		v.elems[i] = e
	}
	return d.Err()
}

// String implements Value.
func (v *SymIntVector) String() string {
	parts := make([]string, 0, len(v.elems))
	for _, e := range v.elems {
		parts = append(parts, e.String())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

var (
	_ Value        = (*SymVector[string])(nil)
	_ Value        = (*SymIntVector)(nil)
	_ taglessCodec = (*SymVector[string])(nil)
	_ taglessCodec = (*SymIntVector)(nil)
)
