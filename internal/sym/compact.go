package sym

import "repro/internal/wire"

// Summary compaction: canonicalize and deduplicate semantically
// equivalent paths before a summary ships. Executors already merge
// same-transfer paths as they run (tryMergeFields), but two sources of
// redundancy survive to the shuffle:
//
//   - Representation aliasing. An unbound SymInt over a single-point
//     constraint lb = ub = k computes the constant a·k+b, yet its
//     transfer is stored as (a, b) — so two paths producing the same
//     constant through different affine routes compare as different
//     transfers and never merge. Rewriting such fields to their bound
//     canonical form (constant a·k+b, constraint kept) makes the
//     equivalence syntactic.
//   - Merge ordering. Interval unions are only attempted between paths
//     already equal elsewhere; a union that succeeds can expose further
//     unions. One quadratic pass stops early.
//
// Compact therefore runs: merge as-is (so adjacent singleton intervals
// union while their transfers are still identity — canonicalizing first
// would bind them to different constants and block the union), then
// canonicalize, then re-merge to a fixpoint. SymEnum is deliberately
// not canonicalized: per the paper (§4.1) an enum binds only on
// assignment, and the identity transfer is what lets enum paths merge
// by set union.

// canonicalizer is implemented by Values with a non-unique transfer
// representation that can be rewritten to a canonical form without
// changing path semantics.
type canonicalizer interface {
	// canonicalize rewrites the receiver in place. It must preserve
	// Admits, Concretize, ComposeAfter and transfer() behaviour exactly.
	canonicalize()
}

// taglessCodec is implemented by Values whose wire form can drop the
// leading field tag when it equals the field's position in the state —
// the overwhelmingly common case, since executors name inputs by field
// index. The summary header carries one bit saying whether every field
// of every path qualifies; when set, the schema's field order is the
// tag dictionary and no per-field tag is shipped.
type taglessCodec interface {
	// tagMatches reports whether the field's tag equals pos, i.e. the
	// tag is recoverable from position alone.
	tagMatches(pos int) bool
	// encodeTagless appends the field's wire form without its tag.
	encodeTagless(e *wire.Encoder)
	// decodeTagless reads the tagless wire form, adopting pos as the tag.
	decodeTagless(d *wire.Decoder, pos int) error
}

// Compact canonicalizes path fields and merges semantically equivalent
// paths, returning the number of paths eliminated. It is idempotent and
// run automatically by Encode; call it directly to shrink a summary
// that is composed further rather than shipped.
func (s *Summary[S]) Compact() int {
	var n int
	s.ps, n = new(containers[S]).compact(s.ps) // absorbed paths drop to the GC
	return n
}

// compact is Compact over a bare path set, in place; absorbed paths'
// containers retire to c.
func (c *containers[S]) compact(ps []*pathState[S]) ([]*pathState[S], int) {
	if len(ps) == 0 {
		return ps, 0
	}
	ps, total := c.merge(ps)
	for _, p := range ps {
		for _, f := range p.fs {
			if cz, ok := f.(canonicalizer); ok {
				cz.canonicalize()
			}
		}
	}
	for len(ps) > 1 {
		var n int
		if ps, n = c.merge(ps); n == 0 {
			break
		}
		total += n
	}
	return ps, total
}
