package sym

import "repro/internal/wire"

// A bundle is what one (mapper, key) pair contributes to its key, in one
// of two forms told apart by the count:
//
//	Uvarint(count) · summary₀ · summary₁ · …    count ≥ 1: the ordered summary list
//	Uvarint(0) · Uvarint(n) · event₁ … eventₙ    a group of 1 ≤ n ≤ maxEventGroup events
//
// A summary pays only when a key repeats within a mapper: for a small
// group, exploring its events, encoding the paths and composing them at
// the reducer cost more than the events they describe. So a group of at
// most maxEventGroup events ships its events, written by the query's
// event codec (NewEventSchema), and a fold site applies them by running
// Update on a copy of its concrete state, in order: the sequential
// semantics (§5.4) by construction. The exec site writes the form
// (Executor.FeedBatch, AppendBundle), the fold site reads it
// (Folder.Fold); it depends on the group's events alone. No
// summary list is empty, so a count of 0 always announces events — also
// ones their codec writes as zero bytes.

// maxEventGroup is the largest group that ships its events. Past it a
// summary is the cheaper form: an identity-heavy group (G1's pushes) of a
// few dozen events ships the constant identity bundle (IdentityBundle),
// which a longer event list would replace with a longer fold. It also
// caps the Update runs a forged bundle can make a fold site do.
const maxEventGroup = 8

// EncodeSummaryBundle encodes a non-empty summary list as one bundle into
// an exact-size buffer the caller owns. The summaries are borrowed, but
// Encode compacts them in place. A map task appends its bundles straight
// from the executor's paths to a slab instead (core.bundleSlab).
func EncodeSummaryBundle[S State](sums []*Summary[S]) []byte {
	if len(sums) == 0 {
		panic("sym: an empty summary list has no bundle: count 0 announces events")
	}
	e := wire.GetEncoder()
	e.Uvarint(uint64(len(sums)))
	for _, s := range sums {
		s.Encode(e)
	}
	buf := make([]byte, e.Len())
	copy(buf, e.Bytes())
	wire.PutEncoder(e)
	return buf
}

// NewEventSchema is NewSchema for a query that serializes its events, so
// that a small group ships its events; decode(encode(e)) must look the
// same to update as e. With encode or decode nil it is NewSchema.
func NewEventSchema[S State, E any](newState func() S, update func(*Ctx, S, E),
	encode func(*wire.Encoder, E), decode func(*wire.Decoder) (E, error)) (*Schema[S], error) {
	sc, err := NewSchema(newState)
	if err != nil || encode == nil || decode == nil {
		return sc, err
	}
	sc.encodeEvent = encode
	sc.applyEvent = func(ctx *Ctx, s S, d *wire.Decoder) error {
		ev, err := decode(d)
		if err == nil {
			err = d.Err()
		}
		if err != nil {
			return err
		}
		ctx.reset()
		ctx.begin()
		update(ctx, s, ev)
		return nil
	}
	return sc, nil
}
