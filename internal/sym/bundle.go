package sym

import "repro/internal/wire"

// Summary bundles are the engine's unit of summary handoff: the ordered
// summary list of one (mapper, key) pair, encoded as
//
//	Uvarint(count) · summary₀ · summary₁ · …
//
// Mappers emit bundles into the shuffle, fold sites decode them into
// their own containers (Folder.AddBundle), and the serve layer caches
// the encoded bytes per segment so a re-submitted job folds them
// without re-running the map side.

// AppendSummaryBundle appends an ordered summary list to e as one
// bundle. The summaries are borrowed, not consumed, but Encode compacts
// them in place.
func AppendSummaryBundle[S State](e *wire.Encoder, sums []*Summary[S]) {
	e.Uvarint(uint64(len(sums)))
	for _, s := range sums {
		s.Encode(e)
	}
}

// EncodeSummaryBundle encodes one bundle into an exact-size buffer the
// caller owns. A map task, which encodes one per group, appends them to
// a slab instead (core.bundleSlab).
func EncodeSummaryBundle[S State](sums []*Summary[S]) []byte {
	e := wire.GetEncoder()
	AppendSummaryBundle(e, sums)
	buf := make([]byte, e.Len())
	copy(buf, e.Bytes())
	wire.PutEncoder(e)
	return buf
}
