package mapreduce

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/wire"
)

// Segment codec: the compact wire form of one spill run (one mapper's
// output for one partition, in emit order). The legacy per-record
// framing — key, mapperID, value, each fully spelled out —
// pays for the group key once per record and for the mapper ID once per
// record even though a run has exactly one mapper and few distinct keys.
// The segment form factors the redundancy out:
//
//	flags byte             segRaw (any other value is corrupt)
//	payload:
//	  uvarint recordCount
//	  uvarint mapperID     constant per run, written once
//	  string dictionary    distinct keys in first-use order (wire.StringDict)
//	  per record, in emit order:
//	    varint Δ keyIndex  zig-zag delta vs previous record
//	    bytes  value       length-prefixed payload
//
// A record carries no position: emit order is the run's order, and the
// reduce side keeps it (rungroup.go). First-use order keeps the key
// deltas small — a key's first record indexes one past the previous new
// key — and zig-zag absorbs the sign of a repeated key. Decoding allocates
// one string per distinct key instead of one per record, so the
// dictionary is a decode-side allocation win as well as a byte win.
// Metrics.ShuffleBytes counts exactly these encoded bytes; the legacy
// per-record framing survives as ShuffleLogicalBytes.
//
// Flags 0x02 was a DEFLATE-compressed form; it is retired and decodes
// as corrupt, like any flags byte but segRaw.
const segRaw = 0x01

// segMinRecordBytes is the smallest possible encoded record (a one-byte
// key delta plus an empty value's length byte); it bounds the
// record-count claim of a corrupt header before any allocation.
const segMinRecordBytes = 2

// segEncoder is the encoder's scratch, held by a map attempt's scratch
// (mapScratch): the wire encoder, the key→index map it builds per
// segment, the dictionary in first-use order and each record's
// dictionary index. The zero value is ready to use.
type segEncoder struct {
	pe   wire.Encoder
	idx  map[string]int32
	dict []string
	keys []int32
}

// encode encodes one run into a buffer from runBufs. All records must
// carry the same mapperID (one run is one mapper's output, asserted
// cheaply here). The returned slice is exactly the encoding: decoded
// values alias it, so it lives as long as the run's records do.
func (se *segEncoder) encode(recs []kvRec) []byte {
	pe := &se.pe
	pe.Reset()
	pe.Uvarint(uint64(len(recs)))
	var mapperID int
	if len(recs) > 0 {
		mapperID = recs[0].mapperID
	}
	pe.Uvarint(uint64(mapperID))

	// Key dictionary in first-use order. A key repeated back to back
	// skips the map.
	if se.idx == nil {
		se.idx = make(map[string]int32, 64)
	}
	dict := se.dict[:0]
	for i := range recs {
		if i > 0 && recs[i].key == recs[i-1].key {
			se.keys = append(se.keys, se.keys[i-1])
			continue
		}
		ki, ok := se.idx[recs[i].key]
		if !ok {
			ki = int32(len(dict))
			dict = append(dict, recs[i].key)
			se.idx[recs[i].key] = ki
		}
		se.keys = append(se.keys, ki)
	}
	pe.StringDict(dict)

	// Key deltas and values, row-wise.
	var prevKeyIdx int64
	for i := range recs {
		r := &recs[i]
		if r.mapperID != mapperID {
			panic(fmt.Sprintf("mapreduce: run mixes mapper %d and %d", mapperID, r.mapperID))
		}
		ki := int64(se.keys[i])
		pe.Varint(ki - prevKeyIdx)
		pe.BytesField(r.value)
		prevKeyIdx = ki
	}
	// Keys may view a segment's records: none stays behind. A map grown
	// past maxPooledKeyMap is dropped rather than kept with its buckets.
	if len(se.idx) > maxPooledKeyMap {
		se.idx = nil
	}
	clear(se.idx)
	clear(dict)
	se.dict, se.keys = dict[:0], se.keys[:0]

	out := getRunBuf(1 + pe.Len())
	out[0] = segRaw
	copy(out[1:], pe.Bytes())
	return out
}

// runBufs recycles encoded runs, class k holding capacities of at least
// 1<<k; a run returns once the reduce task its values alias ends.
var runBufs [64]sync.Pool

// getRunBuf returns a buffer of length n from the smallest class it fits.
func getRunBuf(n int) []byte {
	k := bits.Len(uint(n - 1))
	if v := runBufs[k].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, 1<<k)
}

// putRunBuf recycles b into the class its capacity fills. nil is a no-op.
func putRunBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	runBufs[bits.Len(uint(cap(b)))-1].Put(&b)
}

// decodeSegment appends a segment's records to recs and returns the
// result with the header's mapperID, which a zero-record run carries too.
// Values alias buf, and nothing else does. Malformed input — bad flags,
// truncated frames, out-of-range dictionary indexes, forged counts —
// returns an error and recs as it was, none of the segment's records
// left in it, even past its length; it never panics or over-allocates.
func decodeSegment(recs []kvRec, buf []byte) ([]kvRec, int, error) {
	d := wire.NewDecoder(buf)
	if flags := d.Byte(); flags != segRaw {
		if err := d.Err(); err != nil {
			return recs, 0, fmt.Errorf("mapreduce: segment: %w", err)
		}
		return recs, 0, fmt.Errorf("%w: unknown segment flags %#x", wire.ErrCorrupt, flags)
	}
	n := d.Length(d.Remaining()/segMinRecordBytes + 1)
	mapperID := d.Length(math.MaxInt32)
	dict := d.StringDict(n)
	if err := d.Err(); err != nil {
		return recs, 0, fmt.Errorf("mapreduce: segment header: %w", err)
	}
	lo := len(recs)
	recs = slices.Grow(recs, n)
	var keyIdx int64
	var err error
	for i := 0; i < n; i++ {
		keyIdx += d.Varint()
		value := d.BytesField()
		if err = d.Err(); err != nil {
			err = fmt.Errorf("mapreduce: segment record: %w", err)
			break
		}
		if keyIdx < 0 || keyIdx >= int64(len(dict)) {
			err = fmt.Errorf("%w: segment key index %d outside dictionary of %d",
				wire.ErrCorrupt, keyIdx, len(dict))
			break
		}
		if len(value) == 0 {
			value = nil
		}
		recs = append(recs, kvRec{key: dict[keyIdx], mapperID: mapperID, value: value})
	}
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after segment", wire.ErrCorrupt, d.Remaining())
	}
	if err != nil {
		clear(recs[lo:])
		return recs[:lo], 0, err
	}
	return recs, mapperID, nil
}
