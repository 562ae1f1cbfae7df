package sym

import (
	"fmt"

	"repro/internal/wire"
)

// A bundle is what one (mapper, key) pair contributes to its key, in one
// of two forms told apart by the count:
//
//	Uvarint(count) · summary₀ · summary₁ · …    count ≥ 1: the ordered summary list
//	Uvarint(0) · event                         a group of exactly one event
//
// A one-event group's summary describes that one event, and never in
// fewer bytes or less work, so such a group ships the event, written by
// the query's event codec (NewEventSchema), and a fold site applies it
// by running Update on its concrete state: the sequential semantics
// (§5.4) by construction. The exec site writes the form
// (Executor.FeedBatch, AppendBundle), the fold site reads it
// (Folder.AddBundleFrom); it depends on the group's events alone. No
// summary list is empty, so a count of 0 always announces an event —
// also one its codec writes as zero bytes.

// EncodeSummaryBundle encodes a non-empty summary list as one bundle into
// an exact-size buffer the caller owns. The summaries are borrowed, but
// Encode compacts them in place. A map task appends its bundles straight
// from the executor's paths to a slab instead (core.bundleSlab).
func EncodeSummaryBundle[S State](sums []*Summary[S]) []byte {
	if len(sums) == 0 {
		panic("sym: an empty summary list has no bundle: count 0 announces an event")
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
// that a one-event group ships its event; decode(encode(e)) must look
// the same to update as e. With encode or decode nil it is NewSchema.
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
		if err == nil && d.Remaining() != 0 {
			err = fmt.Errorf("%w: %d trailing bytes after the event", wire.ErrCorrupt, d.Remaining())
		}
		if err != nil {
			return fmt.Errorf("sym: event bundle: %w", err)
		}
		ctx.reset()
		ctx.begin()
		update(ctx, s, ev)
		return nil
	}
	return sc, nil
}
