package sym

import "repro/internal/wire"

// Value is the interface implemented by all symbolic data types. A Value
// bundles, for one field of the aggregation state, both halves of a path:
// the constraint its path places on the field's unknown initial value x,
// and the transfer function giving the field's current value in terms
// of x. Keeping the two together is what makes every decision procedure a
// constant-time, single-variable check (paper §3.3–§3.4).
//
// User-defined symbolic types (paper §4.5) implement this interface; they
// must keep a canonical constraint form, decide branch feasibility without
// a general solver, support merging, and serialize compactly.
//
// Storage. A Value whose representation has slices may share them between
// copies (CopyFrom copies headers, not elements), so a value that shares
// storage never writes it in place: appends go past every sharer's view
// (CopyFrom clips) or to a fresh array. The storage a site's working
// values grow into is the site's (SymIntVector: see Executor and Folder),
// reclaimed when the site's key is done; whatever outlives that moves its
// elements out first. And CopyFrom(path) then Concretize(prev) — how a
// fold site turns a decoded path into a key's state — leaves the receiver
// sharing no storage with path, so the site decodes the next bundle over
// it, and no capacity with prev, so Update may append to it.
type Value interface {
	// ResetSymbolic reinitializes the value to a fresh, unconstrained
	// symbolic input identified by field index id. Field indices are the
	// positions returned by State.Fields and identify symbolic variables
	// across serialization and composition.
	ResetSymbolic(id int)

	// CopyFrom overwrites the value with src, which must have the same
	// dynamic type. Used to clone paths. The copy may share src's storage
	// (see the type comment).
	CopyFrom(src Value)

	// IsConcrete reports whether the current value no longer depends on
	// the symbolic input (it can still carry a constraint on that input).
	IsConcrete() bool

	// SameTransfer reports whether other (same dynamic type) has an
	// identical transfer function. Two paths are merge candidates only if
	// every field pair has the same transfer (paper §3.5).
	SameTransfer(other Value) bool

	// ConstraintEq reports whether other carries an identical constraint.
	ConstraintEq(other Value) bool

	// UnionConstraint attempts to widen the receiver's constraint to the
	// union with other's, in place. It reports false — without mutating
	// the receiver — when the union is not representable in the type's
	// canonical form (e.g. two disjoint, non-adjacent intervals).
	UnionConstraint(other Value) bool

	// Admits reports whether the concrete value held by prev (same
	// dynamic type, IsConcrete) satisfies the receiver's constraint.
	// Summary application uses it to select the unique admitted path.
	Admits(prev Value) bool

	// Concretize rewrites the receiver in place into its concrete output
	// value, given prev as the concrete input for this field and env for
	// cross-field references (symbolic elements inside vectors). The
	// caller must have established Admits(prev). After Concretize the
	// value reports IsConcrete, carries no constraint and holds storage
	// as the type comment says.
	Concretize(prev Value, env *Env)

	// ComposeAfter rewrites the receiver — a field of a later summary's
	// path — to be expressed over prev's symbolic input, where prev is
	// the same field of an earlier summary's path (paper §3.6). It
	// reports false, leaving the receiver unspecified, when the combined
	// path is infeasible. senv resolves cross-field references.
	ComposeAfter(prev Value, senv *SymEnv) bool

	// Encode appends the value's canonical form to e.
	Encode(e *wire.Encoder)

	// Decode reads the canonical form written by Encode. The receiver
	// must have been constructed with the same shape (e.g. enum domain
	// size, vector codec) as the encoder side. Decode overwrites the
	// receiver in full and may reuse its storage, so only decode into a
	// value whose storage is its own and unshared: a fold site's decode
	// containers are written by Decode alone.
	Decode(d *wire.Decoder) error

	// String renders the constraint and transfer for diagnostics, e.g.
	// "[lb,ub] => 2x+3".
	String() string
}

// State is implemented by user aggregation-state structs. Fields returns
// pointers to every symbolic field in a stable order; it is the Go
// analogue of the paper's list_fields (§5.3) and lets the runtime clone,
// merge, serialize and compose states without reflection.
type State interface {
	Fields() []Value
}

// Env carries the concrete initial values of every field during summary
// application, so vector elements that reference other fields' inputs can
// be resolved (paper §4.5: a vector "concretizes all elements that depend
// on x" at composition).
type Env struct {
	ints []int64
	ok   []bool
}

// scalarInput is implemented by Values whose symbolic input is an
// int64-valued scalar (SymInt, SymEnum, SymBool); only such inputs can be
// referenced by vector elements.
type scalarInput interface {
	// concreteInput returns the field's concrete value as an int64.
	concreteInput() (int64, bool)
}

// Int returns the concrete int64 input of field id.
func (e *Env) Int(id int) int64 {
	if e == nil || id < 0 || id >= len(e.ints) || !e.ok[id] {
		fail(ErrSymbolicRead)
	}
	return e.ints[id]
}

// SymEnv carries, for symbolic-on-symbolic composition, the transfer
// function of every scalar field of the earlier path: value = a·x(field)+b
// when not bound, or the constant b when bound.
type SymEnv struct {
	entries []symEnvEntry
}

type symEnvEntry struct {
	ok    bool
	bound bool
	a, b  int64
}

// scalarTransfer is implemented by Values whose transfer over their own
// input is affine (SymInt) or identity/constant (SymEnum, SymBool).
type scalarTransfer interface {
	// transfer returns (bound, a, b): the current value is b if bound,
	// else a·x+b over the field's symbolic input x.
	transfer() (bound bool, a, b int64)
}

func (e *SymEnv) lookup(id int) symEnvEntry {
	if e == nil || id < 0 || id >= len(e.entries) || !e.entries[id].ok {
		fail(ErrStateMismatch)
	}
	return e.entries[id]
}

// Codec serializes and compares user element types stored in symbolic
// vectors and predicates. Go has no reflection-free generic encoding, so
// like the paper's list_fields this is explicit programmer support.
type Codec[T any] struct {
	Encode func(*wire.Encoder, T)
	Decode func(*wire.Decoder) T
	Equal  func(a, b T) bool
}

// Int64Codec is a Codec for int64 elements.
func Int64Codec() Codec[int64] {
	return Codec[int64]{
		Encode: func(e *wire.Encoder, v int64) { e.Varint(v) },
		Decode: func(d *wire.Decoder) int64 { return d.Varint() },
		Equal:  func(a, b int64) bool { return a == b },
	}
}

// StringCodec is a Codec for string elements.
func StringCodec() Codec[string] {
	return Codec[string]{
		Encode: func(e *wire.Encoder, v string) { e.String(v) },
		Decode: func(d *wire.Decoder) string { return d.String() },
		Equal:  func(a, b string) bool { return a == b },
	}
}

// maxFieldID bounds field indices accepted from the wire; real states
// have a handful of fields, and an unbounded index would let corrupt
// input drive huge allocations or out-of-range lookups.
const maxFieldID = 1 << 16
