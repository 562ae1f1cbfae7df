package serve

import (
	"fmt"
	"testing"

	"repro/internal/mapreduce"
)

func bundle(n int, size int) *Part {
	p := &Part{}
	for i := 0; i < n; i++ {
		p.Add(fmt.Sprintf("k%d", i), make([]byte, size))
	}
	return p
}

// TestPartRoundTrip: a part hands back the keys and bundles it was given,
// in order, and charges at least what they take.
func TestPartRoundTrip(t *testing.T) {
	p := &Part{}
	want := map[string]string{"": "empty key", "k": "", "a much longer key than the others": "v"}
	order := []string{"", "k", "a much longer key than the others"}
	for _, k := range order {
		p.Add(k, []byte(want[k]))
	}
	i := 0
	for key, v := range p.All() {
		k := string(key)
		if k != order[i] || string(v) != want[k] {
			t.Fatalf("entry %d: %q=%q, want %q=%q", i, k, v, order[i], want[order[i]])
		}
		i++
	}
	if i != len(order) || p.Len() != i || p.Bytes() < 40 {
		t.Fatalf("%d entries charged %d bytes", i, p.Bytes())
	}
	for range (&Part{}).All() {
		t.Fatal("an empty part has an entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(5*bundle(1, 98).Bytes()/2, nil) // room for two
	k := func(i int) mapreduce.Digest { return mapreduce.Digest{uint64(i)} }
	c.Put("q", k(1), bundle(1, 98))
	c.Put("q", k(2), bundle(1, 98))
	if _, ok := c.Get("q", k(1)); !ok {
		t.Fatal("k1 should be resident")
	}
	// k1 is now MRU; inserting k3 must evict k2.
	c.Put("q", k(3), bundle(1, 98))
	if _, ok := c.Get("q", k(2)); ok {
		t.Fatal("k2 should have been evicted as LRU")
	}
	if _, ok := c.Get("q", k(1)); !ok {
		t.Fatal("k1 (recently used) should survive")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction / 2 entries", st)
	}
}

func TestCacheKeepsOneOversizedEntry(t *testing.T) {
	c := NewCache(10, nil)
	c.Put("q", mapreduce.Digest{1}, bundle(1, 100))
	if _, ok := c.Get("q", mapreduce.Digest{1}); !ok {
		t.Fatal("a single entry must stay resident even over capacity")
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(1<<20, nil)
	for i := 0; i < 5; i++ {
		c.Put("q", mapreduce.Digest{uint64(i + 1)}, bundle(2, 10))
	}
	held, _ := c.Get("q", mapreduce.Digest{1})
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 5 {
		t.Fatalf("post-flush stats %+v", st)
	}
	// A part handed out before the flush stays usable (immutability).
	n := 0
	for range held.All() {
		n++
	}
	if n != 2 {
		t.Fatal("flushed entry's part mutated")
	}
	if _, ok := c.Get("q", mapreduce.Digest{1}); ok {
		t.Fatal("flushed entry still resident")
	}
}

// TestSchemaKeyIsolation pins that two schemas never share cache slots
// even for identical segment content.
func TestSchemaKeyIsolation(t *testing.T) {
	c := NewCache(1<<20, nil)
	c.Put("q1", mapreduce.Digest{42}, bundle(1, 8))
	if _, ok := c.Get("q2", mapreduce.Digest{42}); ok {
		t.Fatal("schema keys must not share entries")
	}
}

// fakePrefix is a Prefix of a stated size.
type fakePrefix int64

func (p fakePrefix) Bytes() int64 { return int64(p) }

// chainOf addresses the lists that start with each of the digests.
func chainOf(ds ...mapreduce.Digest) []mapreduce.Digest {
	var prev mapreduce.Digest
	out := make([]mapreduce.Digest, len(ds))
	for i, d := range ds {
		prev = prev.Chain(d)
		out[i] = prev
	}
	return out
}

// TestCachePrefixSecondSight pins the admission rule: the first Lookup
// of a list only marks it, the second says "store it", and from then on
// it is found — longest list first, counted as one hit per segment.
func TestCachePrefixSecondSight(t *testing.T) {
	c := NewCache(1<<20, nil)
	chain := chainOf(mapreduce.Digest{1}, mapreduce.Digest{2}, mapreduce.Digest{3})
	if p, k, admit := c.Lookup("q", chain, 0); p != nil || k != 0 || admit != 0 {
		t.Fatalf("first sight: prefix %v, k %d, admit %d; want none", p, k, admit)
	}
	if st := c.Stats(); st.Entries != 3 || st.Bytes != 3*markBytes || st.Prefixes != 0 {
		t.Fatalf("first sight left %+v, want three marks", st)
	}
	if _, _, admit := c.Lookup("q2", chain, 0); admit != 0 {
		t.Fatal("another schema's sight counted as a second one")
	}
	if p, k, admit := c.Lookup("q", chain, 0); p != nil || k != 0 || admit != 3 {
		t.Fatalf("second sight: prefix %v, k %d, admit %d; want admit 3", p, k, admit)
	}
	c.PutPrefix("q", chain[2], fakePrefix(100))
	if st := c.Stats(); st.Prefixes != 1 || st.Bytes != 6*markBytes-markBytes+100 {
		t.Fatalf("after PutPrefix %+v: the prefix must replace its mark", st)
	}
	hits := c.Stats().Hits
	if p, k, admit := c.Lookup("q", chain, 0); p != fakePrefix(100) || k != 3 || admit != 0 {
		t.Fatalf("third sight: prefix %v, k %d, admit %d; want the stored prefix", p, k, admit)
	}
	if got := c.Stats().Hits - hits; got != 3 {
		t.Fatalf("a prefix of 3 segments counted %d hits", got)
	}
	// A longer list that starts with it: resumed from 3, the rest marked;
	// a tail already holding 2 segments is handed the same prefix as 1 hit.
	longer := append(chain[:3:3], chain[2].Chain(mapreduce.Digest{4}))
	if p, k, admit := c.Lookup("q", longer, 0); p == nil || k != 3 || admit != 0 {
		t.Fatalf("longer list: prefix %v, k %d, admit %d", p, k, admit)
	}
	hits = c.Stats().Hits
	if p, k, admit := c.Lookup("q", longer, 2); p == nil || k != 3 || admit != 4 {
		t.Fatalf("from 2: prefix %v, k %d, admit %d; want k 3 and the longer list admitted", p, k, admit)
	}
	if got := c.Stats().Hits - hits; got != 1 {
		t.Fatalf("one new segment counted %d hits", got)
	}
}

// TestCacheForgedLaneNeverShares: keys that agree in one 64-bit lane of
// the digest (mapreduce's TestDigestForgedLaneCollision builds such a
// pair of segments) are different keys — for a part and for a prefix.
func TestCacheForgedLaneNeverShares(t *testing.T) {
	c := NewCache(1<<20, nil)
	x, y := mapreduce.Digest{7, 1}, mapreduce.Digest{7, 2}
	c.Put("q", x, bundle(1, 8))
	if _, ok := c.Get("q", y); ok {
		t.Fatal("a part was served for a segment that collides in one lane")
	}
	c.Lookup("q", []mapreduce.Digest{x}, 0)
	c.Lookup("q", []mapreduce.Digest{x}, 0)
	c.PutPrefix("q", x, fakePrefix(10))
	if p, _, admit := c.Lookup("q", []mapreduce.Digest{y}, 0); p != nil || admit != 0 {
		t.Fatal("a prefix (or its mark) was served for a list that collides in one lane")
	}
	// A list of one segment and that segment do not share a key either.
	if _, ok := c.Get("q", (mapreduce.Digest{}).Chain(x)); ok {
		t.Fatal("a list address was served as a segment's")
	}
}

// TestCachePrefixEvictionAndFlush: prefixes are charged to the same
// budget and leave by the same doors as parts.
func TestCachePrefixEvictionAndFlush(t *testing.T) {
	c := NewCache(300, nil)
	a, b := chainOf(mapreduce.Digest{1}), chainOf(mapreduce.Digest{2})
	for _, ch := range [][]mapreduce.Digest{a, a, b, b} {
		c.Lookup("q", ch, 0)
	}
	c.PutPrefix("q", a[0], fakePrefix(200))
	c.PutPrefix("q", b[0], fakePrefix(200)) // over budget: a is the LRU
	if p, _, _ := c.Lookup("q", a, 0); p != nil {
		t.Fatal("the least recently used prefix should have been evicted")
	}
	if p, _, _ := c.Lookup("q", b, 0); p == nil {
		t.Fatal("the recent prefix should be resident")
	}
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Prefixes != 0 || st.Bytes != 0 {
		t.Fatalf("post-flush stats %+v", st)
	}
	if p, _, admit := c.Lookup("q", b, 0); p != nil || admit != 0 {
		t.Fatal("a flush must forget prefixes and marks alike")
	}
}
