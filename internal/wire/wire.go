// Package wire implements the compact binary encoding SYMPLE uses for
// symbolic summaries and shuffle records.
//
// The paper (§2.3, §4) requires symbolic expressions to be "represented in
// a compact form for efficient serialization and transfer across the
// network"; every canonical form in package sym serializes through this
// package so the shuffle-byte measurements in the evaluation reflect the
// real on-the-wire cost. The format is a simple length-free stream of
// varints (unsigned LEB128), zig-zag-encoded signed integers, and
// length-prefixed byte strings. Streams are self-framing only to the
// extent the decoder knows the schema, exactly like Hadoop writables.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// ErrCorrupt is returned (wrapped) when a decoder reads malformed data.
var ErrCorrupt = errors.New("wire: corrupt stream")

// Encoder appends primitive values to a byte buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated for n bytes.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded contents, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// encPool recycles encoders for transient encode work (summary bundling,
// size computation). Buffers grow to their workload's high-water mark and
// are reused instead of resized per call.
var encPool = sync.Pool{
	New: func() any { return NewEncoder(256) },
}

// maxPooledEncoder bounds the buffer capacity returned to the pool, so
// one pathological summary does not pin megabytes for the process
// lifetime.
const maxPooledEncoder = 1 << 20

// GetEncoder returns a reset pooled encoder. Pair with PutEncoder; the
// encoder's Bytes are invalidated by the return, so copy them out first.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder obtained from GetEncoder to the pool.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledEncoder {
		return
	}
	encPool.Put(e)
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// UvarintLen returns the number of bytes Uvarint writes for v, computed
// arithmetically so size accounting never needs a scratch encoder. A
// varint carries 7 payload bits per byte; v|1 makes the zero value cost
// one byte like the encoder does.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Varint appends a zig-zag-encoded signed varint.
func (e *Encoder) Varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Bool appends a boolean as a single byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Byte appends a raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Uint64 appends a fixed-width little-endian uint64. Used for values with
// high entropy where a varint would usually cost more.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Float64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) Float64(v float64) {
	e.Uint64(math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BytesField appends a length-prefixed byte slice.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads primitive values from a byte stream produced by Encoder.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Reset points the decoder at buf and clears its error, so a long-lived
// owner decodes many buffers through one Decoder.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first decoding error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Uvarint reads an unsigned varint. On error it returns 0 and records the
// error, so callers may defer error checks to Err.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Length reads an unsigned varint intended as an element count and
// validates it against max before any conversion to int, so a forged
// huge value can neither wrap negative nor drive an allocation.
func (d *Decoder) Length(max int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if max < 0 || v > uint64(max) {
		if d.err == nil {
			d.err = fmt.Errorf("%w: length %d exceeds limit %d", ErrCorrupt, v, max)
		}
		return 0
	}
	return int(v)
}

// Bool reads a single-byte boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("bool")
		return false
	}
	return b == 1
}

// Byte reads a raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uint64 reads a fixed-width little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Float64 reads an IEEE-754 float64.
func (d *Decoder) Float64() float64 {
	return math.Float64frombits(d.Uint64())
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.bytesField("string"))
}

// BytesField reads a length-prefixed byte slice. The result aliases the
// decoder's input buffer.
func (d *Decoder) BytesField() []byte {
	return d.bytesField("bytes")
}

func (d *Decoder) bytesField(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
