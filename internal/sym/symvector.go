package sym

import (
	"fmt"
	"slices"
	"strconv"
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
// Forked paths share a backing array under one invariant: at most one
// holder has spare capacity over it. CopyFrom clips the receiver to its
// length, so the copy's first Push reallocates while the source appends
// past every clipped view; a vector is duplicated only through CopyFrom,
// never by struct assignment. A SymVector's arrays are its own, on the
// heap — Elems hands out the backing array, which a Result may keep —
// and Concretize and ComposeAfter build new ones.
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

// Elems returns the vector contents, the backing array. The slice must
// not be mutated.
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

// Concretize implements Value: prepend the previous contents, in a new
// array also when there are none (see Value on storage).
func (v *SymVector[T]) Concretize(prev Value, _ *Env) {
	v.elems = slices.Concat(prev.(*SymVector[T]).elems, v.elems)
}

// ComposeAfter implements Value.
func (v *SymVector[T]) ComposeAfter(prev Value, _ *SymEnv) bool {
	v.Concretize(prev, nil)
	return true
}

// Encode implements Value.
func (v *SymVector[T]) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(v.elems)))
	for _, el := range v.elems {
		v.codec.Encode(e, el)
	}
}

// A vector's wire form has no field tag, so its tagless form is the
// tagged one: a vector field never forces a summary to tagged encoding.

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

// SymIntVector is an append-only vector of possibly symbolic int64
// values. Pushing a still-symbolic SymInt (or SymEnum) records the affine
// expression over that field's input; composition concretizes it once the
// referenced input resolves — the paper's example of appending a symbolic
// count x+5 that a later composition turns concrete (§4.5).
//
// Almost every element is concrete, so the vector is one []int64 of
// element values — a symbolic element's b — and a side list of its
// symbolic slots in ascending position, both clipped by CopyFrom (see
// SymVector). Both grow, and Concretize and ComposeAfter build them, in
// the storage of the site that works in the vector — an Executor's
// paths, a Folder's spares — which the site reclaims when its key is
// done (see Value on storage); a vector no site works in grows on the
// heap. Elems copies.
type SymIntVector struct {
	vals  []int64
	slots []symSlot
	site  *vecArena // where vals and slots grow; nil: the heap
}

// symSlot marks vals[at] as the b of the symbolic element a·x(field)+b.
type symSlot struct {
	at, field int
	a         int64
}

// NewSymIntVector returns an empty SymIntVector.
func NewSymIntVector() SymIntVector { return SymIntVector{} }

// Push appends a concrete element.
func (v *SymIntVector) Push(val int64) {
	if len(v.vals) == cap(v.vals) {
		v.vals = v.site.ints(v.vals, 1)
	}
	v.vals = append(v.vals, val)
}

// PushInt appends the current value of s, symbolic or not.
func (v *SymIntVector) PushInt(s *SymInt) {
	if s.bound {
		v.Push(s.b)
		return
	}
	v.pushSym(s.id, s.a, s.b)
}

// PushEnum appends the current (integer) value of s, symbolic or not.
func (v *SymIntVector) PushEnum(s *SymEnum) {
	if s.bound {
		v.Push(s.c)
		return
	}
	v.pushSym(s.id, 1, 0)
}

// pushSym appends the symbolic element a·x(field)+b.
func (v *SymIntVector) pushSym(field int, a, b int64) {
	v.slots = append(v.site.symSlots(v.slots, 1), symSlot{at: len(v.vals), field: field, a: a})
	v.Push(b)
}

// Len returns the number of elements.
func (v *SymIntVector) Len() int { return len(v.vals) }

// Elems returns a copy of the concrete contents; it aborts if any
// element is still symbolic.
func (v *SymIntVector) Elems() []int64 {
	if len(v.slots) > 0 {
		fail(ErrSymbolicRead)
	}
	return append(make([]int64, 0, len(v.vals)), v.vals...)
}

// ResetSymbolic implements Value.
func (v *SymIntVector) ResetSymbolic(int) { v.vals, v.slots = nil, nil }

// CopyFrom implements Value. The receiver keeps its own site.
func (v *SymIntVector) CopyFrom(src Value) {
	s := src.(*SymIntVector)
	v.vals, v.slots = slices.Clip(s.vals), slices.Clip(s.slots) // see SymVector
}

// detach moves v's elements into new regions of into (nil: the heap).
func (v *SymIntVector) detach(into *vecArena) {
	v.vals = append(into.ints(nil, len(v.vals)), v.vals...)
	v.slots = append(into.symSlots(nil, len(v.slots)), v.slots...)
}

// IsConcrete implements Value.
func (v *SymIntVector) IsConcrete() bool { return len(v.slots) == 0 }

// SameTransfer implements Value.
func (v *SymIntVector) SameTransfer(other Value) bool {
	o := other.(*SymIntVector)
	return slices.Equal(v.vals, o.vals) && slices.Equal(v.slots, o.slots)
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
	v.prepend(prev.(*SymIntVector), func(field int) symEnvEntry { return symEnvEntry{bound: true, b: env.Int(field)} })
}

// ComposeAfter implements Value: prepend prev's elements and rewrite
// symbolic elements through prev's per-field transfer functions.
func (v *SymIntVector) ComposeAfter(prev Value, senv *SymEnv) bool {
	v.prepend(prev.(*SymIntVector), senv.lookup)
	return true
}

// prepend rewrites v as p's elements then its own, in new storage,
// substituting into each symbolic a·x+b the transfer t of x that resolve
// gives: t.b when bound, else t.a·x+t.b, leaving (a·t.a)·x + (a·t.b+b).
func (v *SymIntVector) prepend(p *SymIntVector, resolve func(field int) symEnvEntry) {
	n := len(p.vals)
	if n+len(v.vals) == 0 { // most states' vectors stay empty: nothing to join
		v.vals, v.slots = nil, nil
		return
	}
	vals := append(append(v.site.ints(nil, n+len(v.vals)), p.vals...), v.vals...)
	slots := append(v.site.symSlots(nil, len(p.slots)+len(v.slots)), p.slots...)
	for _, s := range v.slots {
		t, at := resolve(s.field), n+s.at
		vals[at] = addChecked(mulChecked(s.a, t.b), vals[at])
		if !t.bound {
			slots = append(slots, symSlot{at: at, field: s.field, a: mulChecked(s.a, t.a)})
		}
	}
	v.vals, v.slots = vals, slots
}

// Encode implements Value: per element Bool(sym) Varint(b), then for a
// symbolic one Uvarint(field) Varint(a), k the cursor into the slots.
func (v *SymIntVector) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(v.vals)))
	k := 0
	for i, b := range v.vals {
		sym := k < len(v.slots) && v.slots[k].at == i
		e.Bool(sym)
		e.Varint(b)
		if sym {
			e.Uvarint(uint64(v.slots[k].field))
			e.Varint(v.slots[k].a)
			k++
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
	n := d.Length(d.Remaining()) // 0 on error: what is left is Err
	v.vals, v.slots = slices.Grow(v.vals[:0], n)[:n], v.slots[:0]
	for i := range v.vals {
		sym := d.Bool()
		v.vals[i] = d.Varint()
		if sym {
			v.slots = append(v.slots, symSlot{at: i, field: d.Length(maxFieldID), a: d.Varint()})
		}
	}
	return d.Err()
}

// String implements Value.
func (v *SymIntVector) String() string {
	parts := make([]string, len(v.vals))
	for i, b := range v.vals {
		parts[i] = strconv.FormatInt(b, 10)
	}
	for _, s := range v.slots {
		parts[s.at] = fmt.Sprintf("%d·x%d%+d", s.a, s.field, v.vals[s.at])
	}
	return "[" + strings.Join(parts, " ") + "]"
}

var (
	_ Value        = (*SymVector[string])(nil)
	_ Value        = (*SymIntVector)(nil)
	_ taglessCodec = (*SymVector[string])(nil)
	_ taglessCodec = (*SymIntVector)(nil)
)
