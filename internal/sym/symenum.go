package sym

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/wire"
)

// SymEnum is the symbolic version of an enumeration over the bounded
// domain {0, …, n−1} (paper §4.1). It supports equality and inequality
// checks against, and assignment to, concrete constants. Two SymEnums
// cannot be compared, preserving the single-variable constraint property.
//
// Canonical form: x ∈ S ⇒ v = (bound ? c : x). While unbound the value is
// the unknown input x restricted to the set S; once assigned, the value is
// the constant c but the constraint S remains for path selection. Because
// set union is always a set, SymEnum paths with equal transfers always
// merge, bounding path growth on enum-driven UDAs (FSM-style states).
type SymEnum struct {
	id    int
	n     int
	set   bitset
	bound bool
	c     int64
}

// NewSymEnum returns a SymEnum over domain size n (at most 64), bound to
// the concrete initial value c.
func NewSymEnum(n int, c int64) SymEnum {
	if n <= 0 || n > maxEnumDomain || c < 0 || c >= int64(n) {
		fail(fmt.Errorf("sym: NewSymEnum(%d, %d): domain must be 1..%d and value inside it",
			n, c, maxEnumDomain))
	}
	return SymEnum{n: n, set: fullBitset(n), bound: true, c: c}
}

// Domain returns the domain size n.
func (v *SymEnum) Domain() int { return v.n }

// ResetSymbolic implements Value.
func (v *SymEnum) ResetSymbolic(id int) {
	v.id = id
	v.set = fullBitset(v.n)
	v.bound = false
	v.c = 0
}

// CopyFrom implements Value.
func (v *SymEnum) CopyFrom(src Value) {
	*v = *src.(*SymEnum)
}

// IsConcrete implements Value: true when bound by assignment or when
// the constraint has narrowed to a single feasible input.
func (v *SymEnum) IsConcrete() bool {
	_, ok := v.concreteVal()
	return ok
}

// Get returns the concrete value, aborting the path if still symbolic.
func (v *SymEnum) Get() int64 {
	c, ok := v.concreteVal()
	if !ok {
		fail(ErrSymbolicRead)
	}
	return c
}

// TryGet returns the concrete value and whether it is determined.
func (v *SymEnum) TryGet() (int64, bool) { return v.concreteVal() }

// Set binds the value to the concrete constant c.
func (v *SymEnum) Set(c int64) {
	if c < 0 || c >= int64(v.n) {
		fail(fmt.Errorf("sym: SymEnum.Set(%d): value outside domain [0,%d)", c, v.n))
	}
	v.bound, v.c = true, c
}

// concreteVal returns the current value when it is determined: either
// bound by an assignment, or an identity transfer whose constraint set
// has narrowed to a single element (the "unshaded" transition of the
// paper's Figure 3). The transfer representation is deliberately NOT
// rewritten to a constant in the singleton case: per the paper (§4.1)
// a SymEnum is bound only on assignment, and keeping the identity
// transfer lets same-transfer paths merge by set union.
func (v *SymEnum) concreteVal() (int64, bool) {
	if v.bound {
		return v.c, true
	}
	if c := v.set.single(); c >= 0 {
		return c, true
	}
	return 0, false
}

// Eq reports value == c, forking when both outcomes are feasible. The
// decision procedure is two bitset probes (paper §4.1): the true outcome
// restricts the set to S ∩ {c}, the false outcome to S ∖ {c}.
func (v *SymEnum) Eq(ctx *Ctx, c int64) bool {
	if v.bound {
		return v.c == c
	}
	if !v.set.has(c) {
		return false
	}
	if v.set.single() == c {
		return true
	}
	if ctx.Fork() {
		v.set = 0
		v.set.add(c)
		return true
	}
	v.set.remove(c)
	return false
}

// Ne reports value != c.
func (v *SymEnum) Ne(ctx *Ctx, c int64) bool { return !v.Eq(ctx, c) }

// In reports value ∈ cs, forking when both outcomes are feasible.
func (v *SymEnum) In(ctx *Ctx, cs ...int64) bool {
	if v.bound {
		return slices.Contains(cs, v.c)
	}
	var tset bitset
	for _, c := range cs {
		if v.set.has(c) {
			tset.add(c)
		}
	}
	fset := v.set
	for _, c := range cs {
		fset.remove(c)
	}
	switch {
	case tset.empty() && fset.empty():
		fail(ErrInfeasible)
	case fset.empty():
		v.set = tset
		return true
	case tset.empty():
		v.set = fset
		return false
	}
	if ctx.Fork() {
		v.set = tset
		return true
	}
	v.set = fset
	return false
}

// SameTransfer implements Value.
func (v *SymEnum) SameTransfer(other Value) bool {
	o := other.(*SymEnum)
	if v.n != o.n || v.bound != o.bound {
		return false
	}
	return !v.bound || v.c == o.c
}

// ConstraintEq implements Value.
func (v *SymEnum) ConstraintEq(other Value) bool {
	o := other.(*SymEnum)
	return v.n == o.n && v.set == o.set
}

// UnionConstraint implements Value. Set union is always canonical
// (paper §4.1).
func (v *SymEnum) UnionConstraint(other Value) bool {
	v.set |= other.(*SymEnum).set
	return true
}

// Admits implements Value.
func (v *SymEnum) Admits(prev Value) bool {
	p := prev.(*SymEnum)
	if !p.bound {
		fail(ErrSymbolicRead)
	}
	return v.set.has(p.c)
}

// Concretize implements Value.
func (v *SymEnum) Concretize(prev Value, _ *Env) {
	p := prev.(*SymEnum)
	if !v.bound {
		v.bound, v.c = true, p.c
	}
	v.set = fullBitset(v.n)
	v.id = p.id
}

// ComposeAfter implements Value.
func (v *SymEnum) ComposeAfter(prev Value, _ *SymEnv) bool {
	p := prev.(*SymEnum)
	if v.n != p.n {
		fail(ErrStateMismatch)
	}
	if p.bound {
		if !v.set.has(p.c) {
			return false
		}
		if !v.bound {
			v.bound, v.c = true, p.c
		}
		v.set = p.set
	} else {
		ns := p.set & v.set
		if ns.empty() {
			return false
		}
		v.set = ns
	}
	v.id = p.id
	return true
}

// concreteInput implements scalarInput.
func (v *SymEnum) concreteInput() (int64, bool) { return v.concreteVal() }

// transfer implements scalarTransfer. An unbound enum passes its input
// through unchanged — the identity affine function — which over a
// singleton constraint set is the constant it determines.
func (v *SymEnum) transfer() (bool, int64, int64) {
	if c, ok := v.concreteVal(); ok {
		return true, 0, c
	}
	return false, 1, 0
}

// Encode implements Value.
func (v *SymEnum) Encode(e *wire.Encoder) { v.encodeBody(e, true) }

// tagMatches implements taglessCodec.
func (v *SymEnum) tagMatches(pos int) bool { return v.id == pos }

// encodeTagless implements taglessCodec.
func (v *SymEnum) encodeTagless(e *wire.Encoder) { v.encodeBody(e, false) }

func (v *SymEnum) encodeBody(e *wire.Encoder, withTag bool) {
	e.Bool(v.bound)
	if withTag {
		e.Uvarint(uint64(v.id))
	}
	e.Uvarint(uint64(v.n))
	if v.bound {
		e.Varint(v.c)
	}
	// Enum domains are small in practice, so the constraint bitset fits
	// a one- or two-byte uvarint far more often than a fixed 8 bytes.
	e.Uvarint(uint64(v.set))
}

// Decode implements Value.
func (v *SymEnum) Decode(d *wire.Decoder) error { return v.decodeBody(d, -1) }

// decodeTagless implements taglessCodec.
func (v *SymEnum) decodeTagless(d *wire.Decoder, pos int) error { return v.decodeBody(d, pos) }

func (v *SymEnum) decodeBody(d *wire.Decoder, pos int) error {
	v.bound = d.Bool()
	if pos >= 0 {
		v.id = pos
	} else {
		v.id = d.Length(maxFieldID)
	}
	n := d.Length(maxEnumDomain)
	if err := d.Err(); err != nil {
		return err
	}
	if n != v.n {
		return fmt.Errorf("%w: SymEnum domain %d, receiver expects %d", wire.ErrCorrupt, n, v.n)
	}
	if v.bound {
		v.c = d.Varint()
	} else {
		v.c = 0
	}
	v.set = bitset(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if v.set&^fullBitset(v.n) != 0 {
		return fmt.Errorf("%w: SymEnum constraint outside domain %d", wire.ErrCorrupt, v.n)
	}
	return nil
}

// String implements Value.
func (v *SymEnum) String() string {
	var vals []string
	for i := int64(0); i < int64(v.n); i++ {
		if v.set.has(i) {
			vals = append(vals, fmt.Sprintf("%d", i))
		}
	}
	c := fmt.Sprintf("x%d∈{%s}", v.id, strings.Join(vals, ","))
	if v.bound {
		return fmt.Sprintf("%s ⇒ %d", c, v.c)
	}
	return fmt.Sprintf("%s ⇒ x%d", c, v.id)
}

var (
	_ Value          = (*SymEnum)(nil)
	_ scalarInput    = (*SymEnum)(nil)
	_ scalarTransfer = (*SymEnum)(nil)
	_ taglessCodec   = (*SymEnum)(nil)
)
