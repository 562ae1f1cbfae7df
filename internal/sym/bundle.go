package sym

import (
	"fmt"

	"repro/internal/wire"
)

// Summary bundles are the engine's unit of summary handoff: the ordered
// summary list of one (mapper, key) pair, encoded as
//
//	Uvarint(count) · summary₀ · summary₁ · …
//
// Mappers emit bundles into the shuffle, reducers decode them back into
// pooled containers, and the serve layer caches the encoded bytes per
// segment so a re-submitted job can decode straight into a
// Fold without re-running the map side. The helpers here are
// the single codec both paths share.

// EncodeSummaryBundle encodes an ordered summary list as one bundle and
// returns an exact-size buffer the caller owns (safe to retain — it
// does not alias pooled encoder state). The summaries are borrowed, not
// consumed, but Encode compacts them in place.
func (sc *Schema[S]) EncodeSummaryBundle(sums []*Summary[S]) []byte {
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

// DecodeSummaryBundle decodes one bundle from data, appending the
// summaries to dst and returning the extended slice. The summaries are
// drawn from the schema's pools; the caller owns them and releases them
// once consumed. Trailing bytes after the bundle are an error — a
// bundle is a complete unit, not a stream prefix.
func (sc *Schema[S]) DecodeSummaryBundle(dst []*Summary[S], data []byte) ([]*Summary[S], error) {
	d := wire.NewDecoder(data)
	dst, err := sc.decodeBundle(dst, d)
	if err != nil {
		return dst, err
	}
	if d.Remaining() != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes after summary bundle",
			wire.ErrCorrupt, d.Remaining())
	}
	return dst, nil
}

// DecodeSummaryBundleStream decodes one bundle from the head of d,
// leaving the decoder positioned after it — the reducer-side form,
// where several bundles may share one shuffled value.
func (sc *Schema[S]) DecodeSummaryBundleStream(dst []*Summary[S], d *wire.Decoder) ([]*Summary[S], error) {
	return sc.decodeBundle(dst, d)
}

func (sc *Schema[S]) decodeBundle(dst []*Summary[S], d *wire.Decoder) ([]*Summary[S], error) {
	n := d.Length(d.Remaining() + 1)
	if err := d.Err(); err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		s, err := sc.DecodeSummary(d)
		if err != nil {
			return dst, fmt.Errorf("sym: bundle summary %d/%d: %w", i+1, n, err)
		}
		dst = append(dst, s)
	}
	return dst, nil
}
