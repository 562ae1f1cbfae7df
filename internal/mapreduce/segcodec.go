package mapreduce

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/wire"
)

// Segment codec: the compact wire form of one spill run (one mapper's
// sorted output for one partition). The legacy per-record framing —
// key, mapperID, recordID, value, each fully spelled out — pays for the
// group key once per record and for the mapper ID once per record even
// though a run has exactly one mapper and few distinct keys. The segment
// form factors the redundancy out:
//
//	flags byte             segRaw | segFlate
//	[flate frame]          only under segFlate: uvarint rawLen,
//	                       uvarint compLen, DEFLATE bytes (wire.CompressedBlock)
//	payload:
//	  uvarint recordCount
//	  uvarint mapperID     constant per run, written once
//	  string dictionary    distinct keys in first-use order (wire.StringDict)
//	  per record:
//	    varint Δ keyIndex  zig-zag delta vs previous record (0 within a group)
//	    varint Δ recordID  zig-zag delta (small, ascending within a group)
//	    varint Δ seq       zig-zag delta (ascending in spill-sort order)
//	    bytes  value       length-prefixed payload
//
// Sorted runs make the deltas tiny — the key index is non-decreasing and
// recordID/seq climb within each group — but the codec does not require
// sortedness (zig-zag absorbs the sign). Decoding allocates one string per distinct key instead of one
// per record, so the dictionary is a decode-side allocation win as well
// as a byte win. Metrics.ShuffleBytes counts exactly these encoded
// bytes; the legacy per-record framing survives as ShuffleLogicalBytes.
const (
	segRaw   = 0x01
	segFlate = 0x02
)

// segMinRecordBytes is the smallest possible encoded record (three
// one-byte deltas plus an empty value's length byte); it bounds the
// record-count claim of a corrupt header before any allocation.
const segMinRecordBytes = 4

// segKeyMaps pools the key→index maps the encoder builds per segment.
var segKeyMaps = sync.Pool{
	New: func() any { return make(map[string]int, 64) },
}

// maxPooledKeyMap bounds the distinct-key count of maps returned to the
// pool, so one enormous segment does not pin its buckets forever.
const maxPooledKeyMap = 1 << 16

// encodeSegment encodes one run into a fresh buffer. All records must
// carry the same mapperID (one run is one mapper's output, asserted
// cheaply here). The returned slice is exactly sized: decoded values
// alias it, so it lives as long as the run's records do.
func encodeSegment(recs []kvRec, compress bool) []byte {
	pe := wire.GetEncoder()
	defer wire.PutEncoder(pe)
	pe.Uvarint(uint64(len(recs)))
	var mapperID int
	if len(recs) > 0 {
		mapperID = recs[0].mapperID
	}
	pe.Uvarint(uint64(mapperID))

	// Key dictionary in first-use order. Sorted runs hit the last-key
	// fast path for every record after a group's first; the map only
	// arbitrates across groups.
	idx := segKeyMaps.Get().(map[string]int)
	var dict []string
	lastKey, lastIdx := "", -1
	keyAt := func(key string) int {
		if i, ok := idx[key]; ok {
			return i
		}
		i := len(dict)
		dict = append(dict, key)
		idx[key] = i
		return i
	}
	// Pass 1: build the dictionary (record order fixes entry order).
	for i := range recs {
		if i > 0 && recs[i].key == lastKey {
			continue
		}
		lastKey = recs[i].key
		keyAt(lastKey)
	}
	pe.StringDict(dict)

	// Pass 2: delta columns and values, row-wise.
	lastKey, lastIdx = "", 0
	var prevKeyIdx, prevRecID, prevSeq int64
	for i := range recs {
		r := &recs[i]
		if r.mapperID != mapperID {
			panic(fmt.Sprintf("mapreduce: run mixes mapper %d and %d", mapperID, r.mapperID))
		}
		ki := lastIdx
		if i == 0 || r.key != lastKey {
			ki = idx[r.key]
			lastKey, lastIdx = r.key, ki
		}
		pe.Varint(int64(ki) - prevKeyIdx)
		pe.Varint(int64(uint64(r.recordID) - uint64(prevRecID)))
		pe.Varint(int64(uint64(r.seq) - uint64(prevSeq)))
		pe.BytesField(r.value)
		prevKeyIdx, prevRecID, prevSeq = int64(ki), r.recordID, r.seq
	}
	if len(idx) <= maxPooledKeyMap {
		clear(idx)
		segKeyMaps.Put(idx)
	}

	if !compress {
		out := make([]byte, 1+pe.Len())
		out[0] = segRaw
		copy(out[1:], pe.Bytes())
		return out
	}
	oe := wire.GetEncoder()
	oe.Byte(segFlate)
	oe.CompressedBlock(pe.Bytes())
	out := make([]byte, oe.Len())
	copy(out, oe.Bytes())
	wire.PutEncoder(oe)
	return out
}

// decodeSegment decodes a segment into a pooled record buffer. Values
// (and, for raw segments, nothing else) alias buf; compressed payloads
// are inflated into a fresh buffer the records keep alive. Malformed
// input — bad flags, truncated frames, out-of-range dictionary indexes,
// forged counts — returns an error; it never panics or over-allocates.
func decodeSegment(buf []byte) ([]kvRec, error) {
	d := wire.NewDecoder(buf)
	var payload []byte
	switch flags := d.Byte(); flags {
	case segRaw:
		payload = buf[1:]
	case segFlate:
		p, err := d.CompressedBlock()
		if err != nil {
			return nil, fmt.Errorf("mapreduce: segment: %w", err)
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("%w: %d bytes after compressed segment frame",
				wire.ErrCorrupt, d.Remaining())
		}
		payload = p
	default:
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("mapreduce: segment: %w", err)
		}
		return nil, fmt.Errorf("%w: unknown segment flags %#x", wire.ErrCorrupt, flags)
	}

	d = wire.NewDecoder(payload)
	n := d.Length(d.Remaining()/segMinRecordBytes + 1)
	mapperID := d.Length(math.MaxInt32)
	dict := d.StringDict(n)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: segment header: %w", err)
	}
	recs := kvBufs.get(n)
	var keyIdx, recID, seq int64
	for i := 0; i < n; i++ {
		keyIdx += d.Varint()
		recID += d.Varint()
		seq += d.Varint()
		value := d.BytesField()
		if d.Err() != nil {
			break
		}
		if keyIdx < 0 || keyIdx >= int64(len(dict)) {
			kvBufs.put(recs)
			return nil, fmt.Errorf("%w: segment key index %d outside dictionary of %d",
				wire.ErrCorrupt, keyIdx, len(dict))
		}
		if len(value) == 0 {
			value = nil
		}
		recs = append(recs, kvRec{
			key:      dict[keyIdx],
			mapperID: mapperID,
			recordID: recID,
			seq:      seq,
			value:    value,
		})
	}
	if err := d.Err(); err != nil {
		kvBufs.put(recs)
		return nil, fmt.Errorf("mapreduce: segment record: %w", err)
	}
	if d.Remaining() != 0 {
		kvBufs.put(recs)
		return nil, fmt.Errorf("%w: %d trailing bytes after segment", wire.ErrCorrupt, d.Remaining())
	}
	return recs, nil
}
