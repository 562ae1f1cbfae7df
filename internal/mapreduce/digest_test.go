package mapreduce

import (
	"encoding/binary"
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
}

// forgeLaneA returns two record lists that differ in their first record
// yet leave lane a of the digest in the same state: the last record's
// second word is chosen to cancel the difference, which lane a's
// xor-then-bijection step allows and lane b's add-rotate step does not.
func forgeLaneA(x, y []byte) (xs, ys [][]byte) {
	lane := func(first []byte) uint64 {
		h := newDigester()
		h.word(2) // record count
		h.bytes(first)
		h.word(16) // the last record's length
		h.word(0)  // and its first word
		return h.a
	}
	var tail [2][16]byte
	binary.LittleEndian.PutUint64(tail[1][8:], lane(x)^lane(y))
	return [][]byte{x, tail[0][:]}, [][]byte{y, tail[1][:]}
}

// TestDigestForgedLaneCollision: a pair of segments built to collide in
// one 64-bit lane — the attack a single 64-bit content address is open
// to — still has different digests, and so do the lists they start.
func TestDigestForgedLaneCollision(t *testing.T) {
	xs, ys := forgeLaneA([]byte("repo-1\t5\tpush"), []byte("repo-2\t9\tfork"))
	dx, dy := (&Segment{Records: xs}).Digest(), (&Segment{Records: ys}).Digest()
	if dx[0] != dy[0] {
		t.Fatalf("forgery failed: lane a %x vs %x (the test must track digester.word)", dx[0], dy[0])
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
// replaced — the index's rule. Bytes follows the same memo.
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

// TestBytesIsResidentDerivedState: a batch job never digests, and its map
// attempts ask for the segment's size twice each — the total is summed
// once by whichever pass over the records comes first (Bytes itself, the
// index build, the digest), after which asking allocates nothing and
// reads no record; replacing Records with a slice of another length
// recomputes, the index's rule.
func TestBytesIsResidentDerivedState(t *testing.T) {
	recs := func() [][]byte { return [][]byte{[]byte("1\talpha"), []byte("2\tbeta")} }
	plan := &ColPlan{Fields: []ColSpec{{Kind: ColInt, Parse: parseDecimal}}}
	for name, first := range map[string]func(*Segment){
		"bytes":  func(s *Segment) { s.Bytes() },
		"index":  func(s *Segment) { s.Index(plan) },
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
