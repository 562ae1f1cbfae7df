package mapreduce

import (
	"encoding/binary"
	"math/bits"
)

// Digest is a 128-bit content address: two 64-bit lanes mixed by
// different functions of the same words, so an input pair built to
// collide in one lane still differs in the other. It is the one content
// address in the tree — the query service keys its summary cache by it,
// the cluster pool derives its wire digest from it.
type Digest [2]uint64

// digester hashes 64-bit words into both lanes: a is xor-multiply with
// the high half folded back down (a bare multiply only carries
// differences upward), b is rotate-add-multiply.
type digester struct{ a, b uint64 }

func newDigester() digester {
	return digester{a: 0x9e3779b97f4a7c15, b: 0xc2b2ae3d27d4eb4f}
}

func (h *digester) word(w uint64) {
	a := (h.a ^ w) * 0xff51afd7ed558ccd
	h.a = a ^ a>>32
	h.b = (bits.RotateLeft64(h.b, 27) + w) * 0x87c37b91114253d5
}

// bytes mixes one length-prefixed byte string, eight bytes a word.
func (h *digester) bytes(p []byte) {
	h.word(uint64(len(p)))
	for ; len(p) >= 8; p = p[8:] {
		h.word(binary.LittleEndian.Uint64(p))
	}
	if len(p) > 0 {
		var tail [8]byte
		copy(tail[:], p)
		h.word(binary.LittleEndian.Uint64(tail[:]))
	}
}

func (h *digester) sum() Digest {
	return Digest{h.a ^ h.a>>29, h.b ^ h.b>>31}
}

// Chain returns the address of "d, then next": the step that turns
// per-segment digests into the address of an ordered segment list (start
// from the zero Digest). Both lanes of the result depend on all four
// input lanes.
func (d Digest) Chain(next Digest) Digest {
	h := newDigester()
	for _, w := range [...]uint64{d[0], d[1], next[0], next[1]} {
		h.word(w)
	}
	return h.sum()
}

// address is the digest one pass over a segment's records leaves, and
// extent the payload total any pass over them does (the digest's, the
// index build's, or Bytes' own): each valid while rows matches
// len(Records), the index's invalidation rule.
type address struct {
	rows   int
	digest Digest
}

type extent struct {
	rows  int
	bytes int64
}

// Digest content-addresses the segment: the record count and every
// record's length and bytes, and not ID — two segments with the same
// records share an address. It is resident derived state like the index:
// computed once under the segment's lock, recomputed only when Records
// was replaced by a slice of another length. Safe for concurrent use.
func (s *Segment) Digest() Digest {
	if a := s.addr.Load(); a != nil && a.rows == len(s.Records) {
		return a.digest
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.addr.Load()
	if a == nil || a.rows != len(s.Records) {
		a = &address{rows: len(s.Records)}
		h := newDigester()
		h.word(uint64(len(s.Records)))
		var n int64
		for _, r := range s.Records {
			h.bytes(r)
			n += int64(len(r))
		}
		a.digest = h.sum()
		s.addr.Store(a)
		s.size.Store(&extent{rows: a.rows, bytes: n})
	}
	return a.digest
}

// Bytes returns the total payload size of the segment. It is resident
// derived state like the index and the digest: summed once — by
// whichever of the index build, the digest pass or the first call here
// comes first — and again only when Records was replaced by a slice of
// another length. Safe for concurrent use (racing first calls store the
// same total).
func (s *Segment) Bytes() int64 {
	if e := s.size.Load(); e != nil && e.rows == len(s.Records) {
		return e.bytes
	}
	var n int64
	for _, r := range s.Records {
		n += int64(len(r))
	}
	s.size.Store(&extent{rows: len(s.Records), bytes: n})
	return n
}
