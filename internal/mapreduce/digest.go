package mapreduce

import (
	"encoding/binary"
	"math/bits"
	"runtime"
)

// Digest is a 128-bit content address: two 64-bit lanes mixed by
// different functions of the same words, so an input pair built to
// collide in one lane still differs in the other. It is the one content
// address in the tree — the query service keys its summary cache by it,
// the cluster pool derives its wire digest from it.
type Digest [2]uint64

// digester hashes a stream of 64-bit words into both lanes: a is
// xor-multiply with the high half folded back down (a bare multiply only
// carries differences upward), b is rotate-add-multiply. Each lane is
// four stripes — word k of the stream goes to stripe k mod 4 — so a
// 32-byte step runs four independent multiply chains a lane, which the
// CPU overlaps instead of queueing on one; sum folds the stripes and the
// word count into one value a lane.
type digester struct {
	a, b [4]uint64
	n    uint64 // words mixed so far
}

func newDigester() digester {
	return digester{a: [4]uint64{0x9e3779b97f4a7c15, 0x01635f5558ff5c2e, 0x648f44f132b43c47, 0xc7bb2a8d0c691c60},
		b: [4]uint64{0xc2b2ae3d27d4eb4f, 0xd90915eec60c6548, 0xef5f7da06443df41, 0x05b5e552027b593a}}
}

func mixA(a, w uint64) uint64 {
	a = (a ^ w) * 0xff51afd7ed558ccd
	return a ^ a>>32
}

func mixB(b, w uint64) uint64 {
	return (bits.RotateLeft64(b, 27) + w) * 0x87c37b91114253d5
}

// records mixes the record count and then each record as its length and
// its bytes, eight bytes a word, the last word zero-padded, and returns
// the bytes' total. The stripes stay in registers for the whole pass,
// renamed so that a0/b0 is always the stripe the next word lands on: one
// word rotates the names, and a 32-byte step — four words, four stripes —
// leaves them where they were, so it needs no alignment.
func (h *digester) records(recs [][]byte) (total int64) {
	r := h.n & 3
	a0, a1, a2, a3 := h.a[r], h.a[(r+1)&3], h.a[(r+2)&3], h.a[(r+3)&3]
	b0, b1, b2, b3 := h.b[r], h.b[(r+1)&3], h.b[(r+2)&3], h.b[(r+3)&3]
	word := func(w uint64) {
		a0, a1, a2, a3 = a1, a2, a3, mixA(a0, w)
		b0, b1, b2, b3 = b1, b2, b3, mixB(b0, w)
	}
	word(uint64(len(recs)))
	h.n++
	for _, p := range recs {
		total += int64(len(p))
		h.n += 1 + uint64(len(p)+7)/8
		word(uint64(len(p)))
		for ; len(p) >= 32; p = p[32:] {
			q := p[:32:32]
			w0, w1 := binary.LittleEndian.Uint64(q), binary.LittleEndian.Uint64(q[8:])
			w2, w3 := binary.LittleEndian.Uint64(q[16:]), binary.LittleEndian.Uint64(q[24:])
			a0, a1, a2, a3 = mixA(a0, w0), mixA(a1, w1), mixA(a2, w2), mixA(a3, w3)
			b0, b1, b2, b3 = mixB(b0, w0), mixB(b1, w1), mixB(b2, w2), mixB(b3, w3)
		}
		for ; len(p) >= 8; p = p[8:] {
			word(binary.LittleEndian.Uint64(p))
		}
		if len(p) > 0 {
			var tail [8]byte
			copy(tail[:], p)
			word(binary.LittleEndian.Uint64(tail[:]))
		}
	}
	r = h.n & 3
	h.a[r], h.a[(r+1)&3], h.a[(r+2)&3], h.a[(r+3)&3] = a0, a1, a2, a3
	h.b[r], h.b[(r+1)&3], h.b[(r+2)&3], h.b[(r+3)&3] = b0, b1, b2, b3
	return total
}

// sum folds each lane's stripes, in stripe order, after the word count.
func (h *digester) sum() Digest {
	a, b := mixA(0, h.n), mixB(0, h.n)
	for i := range h.a {
		a, b = mixA(a, h.a[i]), mixB(b, h.b[i])
	}
	return Digest{a ^ a>>29, b ^ b>>31}
}

// Chain returns the address of "d, then next": the step that turns
// per-segment digests into the address of an ordered segment list (start
// from the zero Digest). It digests the four lanes as one 32-byte record,
// so both lanes of the result depend on all four.
func (d Digest) Chain(next Digest) Digest {
	var rec [32]byte
	for i, w := range [...]uint64{d[0], d[1], next[0], next[1]} {
		binary.LittleEndian.PutUint64(rec[8*i:], w)
	}
	h := newDigester()
	h.records([][]byte{rec[:]})
	return h.sum()
}

// Digest content-addresses the segment: the record count and every
// record's length and bytes, and not ID — two segments with the same
// records share an address. It is resident derived state, kept under
// Derived's rule: computed once under the segment's lock, again only
// when Records was replaced by a slice of another length. The pass
// leaves the payload total for Bytes. Safe for concurrent use.
func (s *Segment) Digest() Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.resident()
	if !m.digested {
		h := newDigester()
		m.size = h.records(s.Records)
		runtime.KeepAlive(s)
		m.digest, m.digested, m.sized = h.sum(), true, true
	}
	return m.digest
}

// Bytes returns the total payload size of the segment: a length sum,
// resident under Derived's rule like the digest — summed once, by the
// digest's pass or the first call here, and again only when Records was
// replaced by a slice of another length. Safe for concurrent use.
func (s *Segment) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.resident()
	if !m.sized {
		for _, r := range s.Records {
			m.size += int64(len(r))
		}
		m.sized = true
	}
	return m.size
}
