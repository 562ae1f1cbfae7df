package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/wire"
)

// batchExec is the exec site one map attempt runs on: the executor —
// which owns every path container the attempt touches — and the scratch
// a chunk is staged in. Pooled per compiled query (Compiled) so the
// executor's run cache and container stack — which depend only on the
// schema and update function, never on the chunk — stay warm across
// chunks and jobs. used marks an executor that has fed keys since its
// last Reset and so needs one before its next FeedBatch.
type batchExec[S sym.State, E any] struct {
	fast *sym.Executor[S, E]
	used bool

	// Chunk scratch, reused by the site's next chunk once Emit has copied
	// this one's result: the GroupBy's key index, and per kept row its
	// key's index and its event, the chunk's grouped form when no memo
	// answers it, and per key its bundle (a slice of enc).
	idx     map[string]int32
	keyIdx  []int32
	rowEvs  []E
	g       grouped[E]
	enc     wire.Encoder
	bundles [][]byte
}

// grouped is pass one's output, all pass two reads: keys in first-use
// order, and key k's events at events[offs[k]:offs[k+1]] in row order.
type grouped[E any] struct {
	keys   []string
	offs   []int32
	events []E
}

// kept is an exact-size copy of g for a segment to keep, its keys (views
// of the records, maybe) copied end to end into one array.
func (g *grouped[E]) kept() *grouped[E] {
	n := 0
	for _, k := range g.keys {
		n += len(k)
	}
	buf := make([]byte, 0, n)
	for _, k := range g.keys {
		buf = append(buf, k...)
	}
	all, keys := unsafe.String(unsafe.SliceData(buf), n), make([]string, len(g.keys))
	for i, k := range g.keys {
		keys[i], all = all[:len(k)], all[len(k):]
	}
	return &grouped[E]{keys, slices.Clone(g.offs), slices.Clone(g.events)}
}

// memo is what a segment keeps of a query (Segment.Derived, under
// groupKey): how many chunks grouped it afresh, and from the second on
// an exact-size copy of their grouped form, which every later chunk
// reads instead — immutable, shared by concurrent ones.
type memo[E any] struct {
	touches atomic.Int32
	g       atomic.Pointer[grouped[E]]
}

func newMemo[E any]() any { return new(memo[E]) }

// groupKey keys q's memo: the GroupBy closure's address (a func value
// is a pointer to its closure), shared by every compilation and copy of
// q whatever its Options. The segment holds it, so it is not reused.
func groupKey[S sym.State, E, R any](q *Query[S, E, R]) any {
	return *(*unsafe.Pointer)(unsafe.Pointer(&q.GroupBy))
}

// sized returns s resliced to n elements, reallocated only when its
// capacity falls short; the contents are unspecified.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// sitePool hands a compiled query's sites, exec or fold, to the tasks of
// its jobs. A site comes back only from a user that ran it to the end:
// one a failure left is dropped. get returns nil from an empty pool.
type sitePool[T any] struct {
	mu   sync.Mutex
	free []T
}

func (p *sitePool[T]) get() (site T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		site, p.free[n-1], p.free = p.free[n-1], site, p.free[:n-1]
	}
	return site
}

func (p *sitePool[T]) put(site T) {
	p.mu.Lock()
	p.free = append(p.free, site)
	p.mu.Unlock()
}

// addStatsDelta folds the growth of one executor's counters between two
// snapshots into the chunk totals — the pooled executor accumulates
// across chunks, so a chunk owns only its delta.
func addStatsDelta(dst *SymStats, cur, prev sym.Stats) {
	dst.Records += cur.Records - prev.Records
	dst.Runs += cur.Runs - prev.Runs
	dst.Merges += cur.Merges - prev.Merges
	dst.Restarts += cur.Restarts - prev.Restarts
	dst.RunProbes += cur.RunProbes - prev.RunProbes
	dst.Events += cur.Events - prev.Events
}

// symExecChunk is the one place events reach a symbolic executor: it
// runs the per-key UDA loop over a map task's segment in two passes and
// returns the grouped form it ran, each key's bundle in be.bundles. Pass
// one is the segment's memo of the query's grouped form, kept by the
// second chunk to group the segment afresh (groupChunk). Pass two runs
// each key through the site: Reset, feed the key's vector to FeedBatch
// (which folds runs of identical events as units and executes quiet
// stretches in place), and append the key's bundle — encoded straight
// from the executor's paths — to the site's encoder; its span times it
// apart from the parse every engine shares. A chunk that runs to the end
// adds its counts to stats (nil: none are kept) under mu.
func symExecChunk[S sym.State, E, R any](q *Query[S, E, R], memoKey any, be *batchExec[S, E], seg *mapreduce.Segment,
	trace *obs.Trace, mapperID int, mu *sync.Mutex, stats *SymStats) (g *grouped[E], err error) {
	parseSpan := trace.Start(obs.KindMapParse, fmt.Sprintf("parse-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrRecords, int64(len(seg.Records)))
	m, _ := seg.Derived(memoKey, newMemo[E]).(*memo[E])
	if m != nil {
		g = m.g.Load()
	}
	if g == nil {
		g = groupChunk(q, be, seg.Records)
		if m != nil && m.touches.Add(1) == 2 {
			m.g.Store(g.kept())
		}
	}
	// The records are read up to here; keys that view them leave with
	// the result, and the map task body keeps seg reachable past them.
	runtime.KeepAlive(seg)
	parseSpan.Attr(obs.AttrGroups, int64(len(g.keys))).
		Attr(obs.AttrBatchRecords, int64(len(g.events))).End()
	// The bundle list is sized here so the exec pass below only appends.
	be.bundles = slices.Grow(be.bundles[:0], len(g.keys))

	execSpan := trace.Start(obs.KindMapExec, fmt.Sprintf("exec-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrGroups, int64(len(g.keys))).
		Attr(obs.AttrBatchRecords, int64(len(g.events)))
	fast, enc := be.fast, &be.enc
	enc.Reset()
	prev, summaries := fast.Stats(), 0
	// needReset tracks whether the executor has run a key since its last
	// reset; the all-identity shortcut below bypasses the executor's
	// paths entirely and so neither needs nor forces one. A pooled
	// executor arrives with the previous chunk's last key still live.
	needReset := be.used
	for ki, key := range g.keys {
		evs := g.events[g.offs[ki]:g.offs[ki+1]]
		if bundle := fast.IdentityBundle(evs); bundle != nil {
			be.bundles = append(be.bundles, bundle)
			summaries++
			continue
		}
		if needReset {
			fast.Reset()
		}
		needReset = true
		err = fast.FeedBatch(evs)
		n, at := 0, enc.Len()
		if err == nil {
			n, err = fast.AppendBundle(enc)
		}
		if err != nil {
			// The site is dropped, not repooled: an errored executor's
			// path state is unspecified, and the attempt is over.
			execSpan.Tag(obs.TagOutcome, "error").End()
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
		// Clipped, so nothing appends over the next key's; an array enc
		// outgrows keeps its bundles until they are emitted.
		be.bundles = append(be.bundles, enc.Bytes()[at:enc.Len():enc.Len()])
		summaries += n
	}
	execSpan.End()
	be.used = needReset
	if stats != nil {
		mu.Lock()
		addStatsDelta(stats, fast.Stats(), prev)
		stats.Summaries += summaries
		mu.Unlock()
	}
	return g, nil
}

// groupChunk is pass one in the site's scratch: the query's GroupBy per
// record, keys interned in first-use order, then a counting sort over the
// key-index vector lays the events out key by key. Keys are views, not
// copies, until the site's next chunk: a first touch allocates per chunk.
func groupChunk[S sym.State, E, R any](q *Query[S, E, R], be *batchExec[S, E], records [][]byte) *grouped[E] {
	g := &be.g
	clear(be.idx)
	g.keys = g.keys[:0]
	be.keyIdx, be.rowEvs = be.keyIdx[:0], be.rowEvs[:0]
	for _, rec := range records {
		key, ev, ok := q.GroupBy(rec)
		if !ok {
			continue
		}
		ki, seen := be.idx[string(key)]
		if !seen {
			k := unsafe.String(unsafe.SliceData(key), len(key)) // a view: kept copies
			ki = int32(len(g.keys))
			g.keys = append(g.keys, k)
			be.idx[k] = ki
		}
		be.keyIdx = append(be.keyIdx, ki)
		be.rowEvs = append(be.rowEvs, ev)
	}
	// offs[k+2] counts key k's events, the running sum turns offs[k+1]
	// into k's start, and laying an event out advances it, so it ends at
	// k's end: offs[k+1], the next key's start.
	nk := len(g.keys)
	g.offs = sized(g.offs, nk+2)
	clear(g.offs)
	for _, ki := range be.keyIdx {
		g.offs[ki+2]++
	}
	for i := 2; i < len(g.offs); i++ {
		g.offs[i] += g.offs[i-1]
	}
	g.events = sized(g.events, len(be.rowEvs))
	for r, ki := range be.keyIdx {
		g.events[g.offs[ki+1]] = be.rowEvs[r]
		g.offs[ki+1]++
	}
	g.offs = g.offs[:nk+1]
	return g
}
