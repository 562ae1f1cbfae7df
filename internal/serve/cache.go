package serve

import (
	"container/list"
	"encoding/binary"
	"iter"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Metric names the cache and server publish into the service registry.
const (
	MetricCacheHits      = "serve_cache_hits"
	MetricCacheMisses    = "serve_cache_misses"
	MetricCacheEvictions = "serve_cache_evictions"
	MetricCacheBytes     = "serve_cache_bytes"
	MetricJobsSubmitted  = "serve_jobs_submitted"
	MetricJobsRejected   = "serve_jobs_rejected"
	MetricJobsCompleted  = "serve_jobs_completed"
	MetricJobsCancelled  = "serve_jobs_cancelled"
	MetricJobsFailed     = "serve_jobs_failed"
	MetricTailUpdates    = "serve_tail_updates"
	MetricQueueWaitNs    = "serve_queue_wait_ns"
)

// cacheKey addresses cached state by content: a segment's digest, or —
// list set — the chained digest of an ordered segment list, joined with
// the query schema key. Content addressing makes invalidation structural:
// appended data arrives as new segments with new digests, and a replaced
// segment simply stops being asked for; stale entries age out of the LRU
// instead of being hunted down.
type cacheKey struct {
	digest mapreduce.Digest
	schema string
	list   bool
}

// Part is one segment's map output under one schema: an encoded summary
// bundle per group key. A part is read in order, never looked up in, so it
// is one pointer-free buffer — a length-prefixed key and bundle per group,
// end to end — and the collector has nothing to walk in a cache full of
// them. It is immutable once folded or cached.
type Part struct {
	data []byte
	n    int
}

// Add appends key's bundle, copying both. A key is added once.
func (p *Part) Add(key string, bundle []byte) {
	p.data = binary.AppendUvarint(p.data, uint64(len(key)))
	p.data = append(p.data, key...)
	p.data = binary.AppendUvarint(p.data, uint64(len(bundle)))
	p.data = append(p.data, bundle...)
	p.n++
}

// Len is the number of groups.
func (p *Part) Len() int { return p.n }

// All ranges over the keys and their bundles. Both alias the part: a
// consumer copies the key it keeps.
func (p *Part) All() iter.Seq2[[]byte, []byte] {
	return func(yield func(key, bundle []byte) bool) {
		for d := p.data; len(d) > 0; {
			n, w := binary.Uvarint(d)
			key := d[w : w+int(n) : w+int(n)]
			d = d[w+int(n):]
			n, w = binary.Uvarint(d)
			if !yield(key, d[w:w+int(n):w+int(n)]) {
				return
			}
			d = d[w+int(n):]
		}
	}
}

// Bytes is the memory the part holds.
func (p *Part) Bytes() int64 { return int64(cap(p.data)) }

// cacheEntry is one of three things. A part holds one segment's per-key
// encoded summary bundles. A prefix holds the fold of a segment list. A
// mark (neither set) records that some job's list began with this list,
// so that the next such job stores the prefix: a list seen once — every
// append-once variant — costs markBytes, not a set of states. All three
// are immutable once inserted, so readers keep using what an entry held
// even after it is evicted mid-fold.
type cacheEntry struct {
	key    cacheKey
	part   *Part
	prefix Prefix
	bytes  int64
	elem   *list.Element
}

// markBytes is what a first-sight mark is charged: its digest.
const markBytes = 16

// Cache is the summary cache: a byte-bounded LRU over parts, prefixes
// and marks. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recently used
	reg     *obs.Registry
	// Local counter mirrors, so Stats works with a nil registry.
	stats CacheStats
}

// CacheStats is a point-in-time cache counter snapshot. Hits counts
// segments: a prefix of k segments is k hits. Entries counts parts,
// prefixes and marks; Prefixes the prefixes among them.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries, Prefixes       int
	Bytes                   int64
}

// NewCache returns a cache bounded to capBytes (minimum one entry is
// always kept). reg may be nil.
func NewCache(capBytes int64, reg *obs.Registry) *Cache {
	return &Cache{cap: capBytes, entries: map[cacheKey]*cacheEntry{}, lru: list.New(), reg: reg}
}

// Get returns the cached part for a segment, or nil. The returned part is
// shared and immutable.
func (c *Cache) Get(schema string, segment mapreduce.Digest) (*Part, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey{digest: segment, schema: schema}]
	if !ok {
		c.stats.Misses++
		c.reg.Counter(MetricCacheMisses).Add(1)
		return nil, false
	}
	c.hit(e, 1)
	return e.part, true
}

// hit counts n segments served from e. Caller holds c.mu.
func (c *Cache) hit(e *cacheEntry, n int) {
	c.lru.MoveToFront(e.elem)
	c.stats.Hits += int64(n)
	c.reg.Counter(MetricCacheHits).Add(int64(n))
}

// Put inserts one segment's part, which must not be added to after
// insertion.
func (c *Cache) Put(schema string, segment mapreduce.Digest, part *Part) {
	e := &cacheEntry{key: cacheKey{digest: segment, schema: schema}, part: part, bytes: part.Bytes()}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(e)
}

// Lookup walks the lists chain[from:] addresses (chain[i] is the list of
// the first i+1 segments), longest first. It returns the longest cached
// prefix and its length k — nil and from when there is none — counting
// its k-from segments as hits; and admit, the length of the longest
// list beyond k that an earlier Lookup has seen, zero when there is
// none. Every list beyond k it had not seen is marked as seen now.
func (c *Cache) Lookup(schema string, chain []mapreduce.Digest, from int) (p Prefix, k, admit int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := len(chain); n > from; n-- {
		key := cacheKey{digest: chain[n-1], schema: schema, list: true}
		switch e := c.entries[key]; {
		case e == nil:
			c.insert(&cacheEntry{key: key, bytes: markBytes})
		case e.prefix != nil:
			c.hit(e, n-from)
			return e.prefix, n, admit
		case admit == 0:
			admit = n
		}
	}
	return nil, from, admit
}

// PutPrefix stores the fold of the segment list addressed by list,
// replacing its mark.
func (c *Cache) PutPrefix(schema string, list mapreduce.Digest, p Prefix) {
	key := cacheKey{digest: list, schema: schema, list: true}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.prefix == nil {
		c.remove(e)
	}
	c.insert(&cacheEntry{key: key, prefix: p, bytes: p.Bytes()})
}

// insert adds e as most recently used, evicting least-recently-used
// entries past the byte capacity; an existing key only has its recency
// refreshed. Caller holds c.mu.
func (c *Cache) insert(e *cacheEntry) {
	if old, ok := c.entries[e.key]; ok {
		c.lru.MoveToFront(old.elem)
		return
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.key] = e
	c.stats.Bytes += e.bytes
	if e.prefix != nil {
		c.stats.Prefixes++
	}
	for c.stats.Bytes > c.cap && c.lru.Len() > 1 {
		c.evictOldest()
	}
	c.reg.Gauge(MetricCacheBytes).Max(c.stats.Bytes)
}

// remove drops e. Caller holds c.mu.
func (c *Cache) remove(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.stats.Bytes -= e.bytes
	if e.prefix != nil {
		c.stats.Prefixes--
	}
}

// evictOldest drops the LRU tail. Caller holds c.mu.
func (c *Cache) evictOldest() {
	c.remove(c.lru.Back().Value.(*cacheEntry))
	c.stats.Evictions++
	c.reg.Counter(MetricCacheEvictions).Add(1)
}

// Flush evicts everything — the chaos eviction-mid-fold fault. Folds
// already holding what an entry held are unaffected (it is immutable);
// the only consequence is future misses.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.Len() > 0 {
		c.evictOldest()
	}
}

// Stats snapshots the cache counters plus the live entry/byte totals.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}
