package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestSegmentDigestContentAddressing pins that the digest depends on
// record content only — not the segment ID — and separates both
// content changes and record-boundary changes, in both lanes.
func TestSegmentDigestContentAddressing(t *testing.T) {
	recs := [][]byte{[]byte("alpha"), []byte("beta")}
	a := (&Segment{ID: 0, Records: recs}).Digest()
	if b := (&Segment{ID: 7, Records: recs}).Digest(); a != b {
		t.Fatal("digest must ignore segment ID")
	}
	for name, other := range map[string][][]byte{
		"content change":  {[]byte("alpha"), []byte("betb")},
		"record boundary": {[]byte("alphab"), []byte("eta")},
		"trailing zero":   {[]byte("alpha"), []byte("beta\x00")},
		"empty record":    {[]byte("alpha"), []byte("beta"), {}},
	} {
		d := (&Segment{Records: other}).Digest()
		if d[0] == a[0] || d[1] == a[1] {
			t.Errorf("%s: digest %x shares a lane with %x", name, d, a)
		}
	}
	if (&Segment{}).Digest() == (&Segment{Records: [][]byte{{}}}).Digest() {
		t.Error("no records and one empty record share a digest")
	}

	// Every path through a record — empty, a tail alone, one word, whole
	// 32-byte steps with and without words around them — at each of the
	// four stripes its length word can land on (a leading record of 0–3
	// words shifts it) separates a boundary moved by one byte either way,
	// a trailing zero and a change in the record's last byte.
	rep := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	for phase := range 4 {
		lead := rep(8 * phase)
		for _, n := range []int{0, 7, 8, 31, 32, 33} {
			digest := func(recs ...[]byte) Digest {
				return (&Segment{Records: append([][]byte{lead}, recs...)}).Digest()
			}
			a := digest(rep(n), []byte("tail"))
			others := map[string]Digest{
				"boundary later": digest(append(rep(n), 't'), []byte("ail")),
				"trailing zero":  digest(append(rep(n), 0), []byte("tail")),
			}
			if n > 0 {
				changed := rep(n)
				changed[n-1] = 'y'
				others["boundary earlier"] = digest(rep(n-1), []byte("xtail"))
				others["last byte"] = digest(changed, []byte("tail"))
			}
			for name, d := range others {
				if d[0] == a[0] || d[1] == a[1] {
					t.Errorf("phase %d, %d-byte record, %s: digest %x shares a lane with %x", phase, n, name, d, a)
				}
			}
		}
	}
}

// TestDigestKnownAnswer pins the content address of fixed records: a
// change to how records are mixed changes every cache key and worker
// cache entry, and must be made on purpose, here.
func TestDigestKnownAnswer(t *testing.T) {
	recs := [][]byte{{}, []byte("1700000000\tuser-17\tus\t1\tquery"), bytes.Repeat([]byte("0123456789"), 10)}
	d := (&Segment{Records: recs}).Digest()
	c := (Digest{}).Chain(d)
	if want := (Digest{0x947f99507c99ee5c, 0x763f28cf6a95246a}); d != want {
		t.Errorf("Digest = %#x, want %#x", d, want)
	}
	if want := (Digest{0xdc241d444a0fead4, 0x84009c574a4d210d}); c != want {
		t.Errorf("Chain = %#x, want %#x", c, want)
	}

	// The 32-byte steps are an execution order, not part of the address:
	// feeding the same stream one word at a time gives the same digest.
	r := rand.New(rand.NewSource(1))
	for i := range 200 {
		recs := make([][]byte, r.Intn(6))
		h := newDigester()
		h.word(uint64(len(recs)))
		for j := range recs {
			recs[j] = make([]byte, r.Intn(100))
			r.Read(recs[j])
			h.record(recs[j])
		}
		if got := (&Segment{Records: recs}).Digest(); got != h.sum() {
			t.Fatalf("case %d: Digest %#x, word at a time %#x", i, got, h.sum())
		}
	}
}

// word mixes one word into its stripe, and record one record as its
// length and its zero-padded words: the word-at-a-time reference the
// striped pass in records is held to.
func (h *digester) word(w uint64) {
	i := h.n & 3
	h.a[i], h.b[i] = mixA(h.a[i], w), mixB(h.b[i], w)
	h.n++
}

func (h *digester) record(p []byte) {
	h.word(uint64(len(p)))
	for ; len(p) > 0; p = p[min(8, len(p)):] {
		var w [8]byte
		copy(w[:], p)
		h.word(binary.LittleEndian.Uint64(w[:]))
	}
}

// forgeLaneA returns two record lists that differ in their first record
// (of equal length) yet leave lane a of the digest in the same state:
// the last record's four words, one per stripe, are chosen to cancel
// each stripe's difference, which lane a's xor-then-bijection step
// allows and lane b's add-rotate step does not.
func forgeLaneA(x, y []byte) (xs, ys [][]byte) {
	lanes := func(first []byte) digester {
		h := newDigester()
		h.word(2) // record count
		h.record(first)
		h.word(32) // the last record's length
		return h
	}
	hx, hy := lanes(x), lanes(y)
	var tail [2][32]byte
	for j := range 4 {
		i := (hx.n + uint64(j)) & 3
		binary.LittleEndian.PutUint64(tail[1][8*j:], hx.a[i]^hy.a[i])
	}
	return [][]byte{x, tail[0][:]}, [][]byte{y, tail[1][:]}
}

// TestDigestForgedLaneCollision: a pair of segments built to collide in
// one 64-bit lane — the attack a single 64-bit content address is open
// to — still has different digests, and so do the lists they start.
func TestDigestForgedLaneCollision(t *testing.T) {
	xs, ys := forgeLaneA([]byte("repo-1\t5\tpush"), []byte("repo-2\t9\tfork"))
	dx, dy := (&Segment{Records: xs}).Digest(), (&Segment{Records: ys}).Digest()
	if dx[0] != dy[0] {
		t.Fatalf("forgery failed: lane a %x vs %x (the test must track the digester's stripes)", dx[0], dy[0])
	}
	if dx[1] == dy[1] {
		t.Fatal("lane b collided with lane a: the lanes are not independent")
	}
	cx, cy := (Digest{}).Chain(dx), (Digest{}).Chain(dy)
	if cx[0] == cy[0] || cx[1] == cy[1] {
		t.Fatalf("list addresses %x and %x share a lane: Chain must mix every input lane into both", cx, cy)
	}
}

// TestDigestIsResidentDerivedState: computed once, kept across an ID
// rewrite (AddDataset renumbers segments) and recomputed when Records is
// replaced — Derived's rule. Bytes follows the same memo.
func TestDigestIsResidentDerivedState(t *testing.T) {
	seg := &Segment{Records: [][]byte{[]byte("alpha"), []byte("beta")}}
	if seg.Bytes() != 9 {
		t.Fatalf("Bytes before any digest = %d, want 9", seg.Bytes())
	}
	d := seg.Digest()
	// Writing a record in place is outside the contract (records are
	// immutable); it is how the test sees that nothing re-reads them.
	seg.Records[0][0] = 'A'
	seg.ID = 5
	if seg.Digest() != d {
		t.Fatal("digest recomputed on a resident segment")
	}
	seg.Records = [][]byte{[]byte("Alpha"), []byte("beta"), []byte("gamma")}
	d2 := seg.Digest()
	if d2 == d {
		t.Fatal("replaced Records kept the old digest")
	}
	if seg.Bytes() != 14 {
		t.Fatalf("Bytes after replacement = %d, want 14", seg.Bytes())
	}
	if fresh := (&Segment{Records: seg.Records}).Digest(); fresh != d2 {
		t.Fatalf("re-digest %x differs from a fresh segment's %x", d2, fresh)
	}

	// A concurrent first touch digests once and everyone agrees.
	cold := &Segment{Records: seg.Records}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cold.Digest() != d2 || cold.Bytes() != 14 {
				t.Error("concurrent first touch disagreed")
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSegmentDigest times a registration's pass over a fresh
// segment: 5 000 records of the fresh-segment sizes the benchmark's
// corpora have (bing's ~150 bytes, github's ~900), reported in MB/s.
func BenchmarkSegmentDigest(b *testing.B) {
	for _, size := range []int{150, 900} {
		recs := make([][]byte, 5000)
		for i := range recs {
			recs[i] = make([]byte, size-i%7) // lengths off the word grid too
			for j := range recs[i] {
				recs[i][j] = byte(i*31 + j)
			}
		}
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			b.SetBytes((&Segment{Records: recs}).Bytes())
			for i := 0; i < b.N; i++ {
				(&Segment{Records: recs}).Digest()
			}
		})
	}
}

// TestBytesIsResidentDerivedState: a batch job never digests, and its map
// attempts ask for the segment's size twice each — the total is summed
// once by whichever comes first of Bytes itself and the digest's pass,
// after which asking allocates nothing and reads no record; replacing
// Records with a slice of another length recomputes, Derived's rule.
func TestBytesIsResidentDerivedState(t *testing.T) {
	recs := func() [][]byte { return [][]byte{[]byte("1\talpha"), []byte("2\tbeta")} }
	for name, first := range map[string]func(*Segment){
		"bytes":  func(s *Segment) { s.Bytes() },
		"digest": func(s *Segment) { s.Digest() },
	} {
		seg := &Segment{Records: recs()}
		first(seg)
		// Swapping a record for a longer one behind the segment's back is
		// outside the contract (the slice keeps its length); it is how the
		// test sees that nothing walks the records again.
		seg.Records[0] = []byte("1\talphabet")
		if got := seg.Bytes(); got != 13 {
			t.Errorf("after %s: Bytes = %d, want the resident 13", name, got)
		}
		if n := testing.AllocsPerRun(100, func() { seg.Bytes() }); n != 0 {
			t.Errorf("after %s: Bytes on a resident segment allocates %v times", name, n)
		}
		seg.Records = append(seg.Records, []byte("3\tgamma"))
		if got := seg.Bytes(); got != 10+6+7 {
			t.Errorf("after %s: Bytes after replacement = %d, want 23", name, got)
		}
	}
}
