package mapreduce

import (
	"bytes"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

// segSeedRecs builds a run shaped like real query traffic: a handful of
// group keys interleaved in emit order, ascending recordIDs, and small
// opaque summary payloads — what encodeSegment sees from a map that
// walks its segment in input order.
func segSeedRecs() []kvRec {
	keys := []string{"repo/alpha", "repo/beta", "repo/gamma", "user-17", ""}
	var recs []kvRec
	var rid int64
	for i := 0; i < 4; i++ {
		for j, k := range keys {
			rid += int64(j%3) + 1
			recs = append(recs, kvRec{
				key:      k,
				mapperID: 3,
				recordID: rid,
				value:    bytes.Repeat([]byte{byte(rid), 0x80, byte(i)}, i+1),
			})
		}
	}
	// One empty value: decode canonicalizes it to nil and the round trip
	// must still hold.
	recs = append(recs, kvRec{key: "repo/alpha", mapperID: 3, recordID: rid + 9})
	return recs
}

// FuzzSegmentDecode feeds decodeSegment arbitrary bytes. The contract
// under test: malformed input — truncated flate frames, forged record
// counts, out-of-range dictionary indexes, trailing garbage — returns an
// error, never panics and never over-allocates; input it accepts must
// survive a re-encode/decode round trip unchanged. Seeds come from the
// committed corpus in testdata/fuzz-seeds/segments — genuine encoder
// output plus one entry per corruption class — so mutations start one
// bit-flip away from the interesting paths.
func FuzzSegmentDecode(f *testing.F) {
	seeds, err := fuzzseed.Load("segments")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		got, mapperID, err := decodeSegment(in)
		if err != nil {
			return
		}
		// Accepted input: re-encoding the decoded records must reproduce
		// them exactly (encode→decode is lossless, so decode→encode→decode
		// is a fixpoint).
		re := encodeSegment(got, false)
		got2, mapperID2, err := decodeSegment(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded segment failed: %v", err)
		}
		if len(got) != len(got2) {
			t.Fatalf("round trip changed record count: %d vs %d", len(got), len(got2))
		}
		if len(got) > 0 && mapperID != mapperID2 {
			t.Fatalf("round trip changed the mapper: %d vs %d", mapperID, mapperID2)
		}
		for i := range got {
			a, b := got[i], got2[i]
			if a.key != b.key || a.mapperID != b.mapperID ||
				a.recordID != b.recordID ||
				!bytes.Equal(a.value, b.value) {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, a, b)
			}
		}
		kvBufs.put(got2)
		kvBufs.put(got)
	})
}

// TestDecodeSegmentRejectsCorruption pins the decoder's behaviour on the
// specific corruptions the wire format is exposed to in flight: every
// case must return an error (not panic) and name ErrCorrupt or a decode
// error, and truncating an encoded segment at any byte must never be
// accepted as a full segment.
func TestDecodeSegmentRejectsCorruption(t *testing.T) {
	recs := segSeedRecs()
	for _, compress := range []bool{false, true} {
		seg := encodeSegment(recs, compress)

		// Every strict prefix is either rejected or (for the raw form)
		// decodes fewer records than the original claimed — it must never
		// silently produce the full record set.
		for cut := 0; cut < len(seg); cut++ {
			got, _, err := decodeSegment(seg[:cut])
			if err == nil {
				t.Fatalf("compress=%v: truncation at %d/%d accepted (%d records)",
					compress, cut, len(seg), len(got))
			}
		}

		// Flipping the flags byte to an unknown value must be rejected.
		bad := append([]byte(nil), seg...)
		bad[0] = 0x7C
		if _, _, err := decodeSegment(bad); err == nil {
			t.Fatalf("compress=%v: unknown flags byte accepted", compress)
		}
	}

	// Corrupt dictionary: a key index pointing outside the dictionary.
	// Build the payload by hand — one record, empty dictionary.
	e := wire.NewEncoder(0)
	e.Uvarint(1)           // one record
	e.Uvarint(0)           // mapperID
	e.StringDict(nil)      // empty dictionary
	e.Varint(5)            // key index 5 — out of range
	e.Varint(0)            // recordID delta
	e.BytesField([]byte{}) // value
	buf := append([]byte{segRaw}, e.Bytes()...)
	if _, _, err := decodeSegment(buf); err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}

	// Trailing garbage after a well-formed segment.
	seg := append(encodeSegment(recs, false), 0xAA, 0xBB)
	if _, _, err := decodeSegment(seg); err == nil {
		t.Fatal("trailing bytes after segment accepted")
	}

	// Compressed frame whose inner payload is garbage: recompress junk so
	// the flate frame itself is valid but the segment payload is not.
	ge := wire.NewEncoder(0)
	ge.Byte(segFlate)
	ge.CompressedBlock([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	if _, _, err := decodeSegment(ge.Bytes()); err == nil {
		t.Fatal("garbage compressed payload accepted")
	}
}
