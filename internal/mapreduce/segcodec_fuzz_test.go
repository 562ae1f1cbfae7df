package mapreduce

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

// segSeedRecs builds a run shaped like real query traffic: a handful of
// group keys interleaved in emit order and small opaque summary
// payloads — what encodeSegment sees from a map that walks its segment
// in input order.
func segSeedRecs() []kvRec {
	keys := []string{"repo/alpha", "repo/beta", "repo/gamma", "user-17", ""}
	var recs []kvRec
	var row byte
	for i := 0; i < 4; i++ {
		for j, k := range keys {
			row += byte(j%3) + 1
			recs = append(recs, kvRec{
				key:      k,
				mapperID: 3,
				value:    bytes.Repeat([]byte{row, 0x80, byte(i)}, i+1),
			})
		}
	}
	// One empty value: decode canonicalizes it to nil and the round trip
	// must still hold.
	recs = append(recs, kvRec{key: "repo/alpha", mapperID: 3})
	return recs
}

// encodeSegment encodes one run with a fresh encoder.
func encodeSegment(recs []kvRec) []byte { return new(segEncoder).encode(recs) }

// decodeOnto decodes in onto a table that already holds a record, as a
// reduce task decodes a run after others, and holds the decoder to its
// contract on that table: a rejected run leaves the table as it was —
// its length, its record, and none of the run's records past its length
// — and an accepted one only appends. It returns the run's records.
func decodeOnto(t *testing.T, in []byte) ([]kvRec, int, error) {
	t.Helper()
	held := kvRec{key: "held", mapperID: 7, value: []byte("v")}
	got, mapperID, err := decodeSegment(append(make([]kvRec, 0, 4), held), in)
	if len(got) < 1 || got[0].key != held.key || got[0].mapperID != held.mapperID ||
		!bytes.Equal(got[0].value, held.value) {
		t.Fatalf("decoding changed the record the table held: %+v", got)
	}
	if err == nil {
		return got[1:], mapperID, nil
	}
	if len(got) != 1 {
		t.Fatalf("a rejected run (%v) left the table at %d records, want 1", err, len(got))
	}
	for i, r := range got[1:cap(got)] {
		if r.key != "" || r.mapperID != 0 || r.value != nil {
			t.Fatalf("a rejected run (%v) left its record %d past the table's length: %+v", err, i, r)
		}
	}
	return nil, 0, err
}

// FuzzSegmentDecode feeds decodeSegment arbitrary bytes. The contract
// under test: malformed input — an unknown or retired flags byte,
// forged record counts, out-of-range dictionary indexes, trailing
// garbage — returns an error and leaves the table it was decoded onto
// as it was, never panics and never over-allocates; input it accepts
// must survive a re-encode/decode round trip unchanged. Seeds come from the committed corpus in
// testdata/fuzz-seeds/segments — genuine encoder output plus one entry
// per corruption class — so mutations start one bit-flip away from the
// interesting paths.
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
		got, mapperID, err := decodeOnto(t, in)
		if err != nil {
			return
		}
		// Accepted input: re-encoding the decoded records must reproduce
		// them exactly (encode→decode is lossless, so decode→encode→decode
		// is a fixpoint).
		re := encodeSegment(got)
		got2, mapperID2, err := decodeOnto(t, re)
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
			if a.key != b.key || a.mapperID != b.mapperID || !bytes.Equal(a.value, b.value) {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, a, b)
			}
		}
	})
}

// TestDecodeSegmentRejectsCorruption pins the decoder's behaviour on the
// specific corruptions the wire format is exposed to in flight: every
// case must return an error (not panic) and name ErrCorrupt or a decode
// error, and truncating an encoded segment at any byte must never be
// accepted as a full segment.
func TestDecodeSegmentRejectsCorruption(t *testing.T) {
	recs := segSeedRecs()
	seg := encodeSegment(recs)

	// Every strict prefix must be rejected: it must never silently
	// produce the full record set.
	for cut := 0; cut < len(seg); cut++ {
		got, _, err := decodeOnto(t, seg[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted (%d records)", cut, len(seg), len(got))
		}
	}

	// Flipping the flags byte to an unknown value, or to the retired
	// flate flag (0x02) in front of a sound raw payload, is corrupt.
	for _, flags := range []byte{0x7C, 0x02} {
		bad := append([]byte(nil), seg...)
		bad[0] = flags
		if _, _, err := decodeOnto(t, bad); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("flags byte %#x: %v, want ErrCorrupt", flags, err)
		}
	}

	// Corrupt dictionary: a key index pointing outside the dictionary.
	// Build the payload by hand — one record, empty dictionary.
	e := wire.NewEncoder(0)
	e.Uvarint(1)           // one record
	e.Uvarint(0)           // mapperID
	e.StringDict(nil)      // empty dictionary
	e.Varint(5)            // key index 5 — out of range
	e.BytesField([]byte{}) // value
	buf := append([]byte{segRaw}, e.Bytes()...)
	if _, _, err := decodeOnto(t, buf); err == nil {
		t.Fatal("out-of-range dictionary index accepted")
	}

	// Trailing garbage after a well-formed segment.
	if _, _, err := decodeOnto(t, append(seg, 0xAA, 0xBB)); err == nil {
		t.Fatal("trailing bytes after segment accepted")
	}
}
