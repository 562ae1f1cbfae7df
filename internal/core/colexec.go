package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/wire"
)

// Batch is the vectorized GroupBy output for one chunk of rows: the
// kept rows' events plus, per event, the index of its group key. Keys
// are interned in first-use order — the same order the scalar per-record
// loop discovers groups in, so the batch path emits bundles in an
// identical order and results stay byte-for-byte comparable.
type Batch[E any] struct {
	// Keys lists the distinct group keys in first-use order.
	Keys []string
	// KeyIdx holds, per kept row, the index of its key in Keys.
	KeyIdx []int32
	// Rows holds, per kept row, its segment-global row index (ascending).
	Rows []int32
	// Events holds the kept rows' events, in row order.
	Events []E
}

// Reset empties the batch, retaining capacity.
func (b *Batch[E]) Reset() {
	b.Keys = b.Keys[:0]
	b.KeyIdx = b.KeyIdx[:0]
	b.Rows = b.Rows[:0]
	b.Events = b.Events[:0]
}

// scalarBatch is the fallback vectorizer: the scalar GroupBy applied
// per record with map-based key interning. It is what makes GroupByBatch
// optional — a query without one, or a segment indexed under another
// query's plan, still runs on the one batched executor.
func scalarBatch[S sym.State, E, R any](q *Query[S, E, R], records [][]byte, b *Batch[E]) {
	b.Reset()
	idx := make(map[string]int32, 64)
	for i, rec := range records {
		key, ev, ok := q.GroupBy(rec)
		if !ok {
			continue
		}
		ki, seen := idx[key]
		if !seen {
			ki = int32(len(b.Keys))
			b.Keys = append(b.Keys, key)
			idx[key] = ki
		}
		b.KeyIdx = append(b.KeyIdx, ki)
		b.Rows = append(b.Rows, int32(i))
		b.Events = append(b.Events, ev)
	}
}

// batchExec is the exec site one map attempt runs on: the executor —
// which owns every path container the attempt touches — and the scratch
// a chunk is staged in. A key that passes through owns nothing but its
// bundle's bytes. Pooled per engine run (the sympleMapFunc closure) so
// the executor's run cache and container stack —
// which depend only on the schema and update function, never on the
// chunk — stay warm across chunks. A site is pooled
// again only by the attempt that ran it to the end: one that errored
// or was killed mid-chunk is simply dropped. used marks an executor
// that has fed keys since its last Reset and so needs one before its
// next FeedBatch.
type batchExec[S sym.State, E any] struct {
	fast *sym.Executor[S, E]
	used bool
	// enc stages one key's bundle, whose size is unknown until encoded,
	// on its way into the chunk's slab.
	enc wire.Encoder

	// Chunk scratch, dead once a chunk's exec pass ends and so reused by
	// the next chunk this executor runs: the GroupBy batch (but for its
	// Keys, which leave with the chunk's result), the counting-sorted
	// events and the sort's offsets and cursors. A job's map tasks
	// otherwise allocate these per chunk, a few hundred KB each.
	batch     Batch[E]
	events    []E
	offs, cur []int32
}

// sized returns s resliced to n elements, reallocated only when its
// capacity falls short; the contents are unspecified.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// batchExecPool hands batch executors to the concurrently running map
// tasks of one engine run. Zero value is ready; an empty pool means the
// chunk builds a fresh batchExec and parks it here when done.
type batchExecPool[S sym.State, E any] struct {
	mu   sync.Mutex
	free []*batchExec[S, E]
}

func (bp *batchExecPool[S, E]) get() *batchExec[S, E] {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if n := len(bp.free); n > 0 {
		be := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		return be
	}
	return nil
}

func (bp *batchExecPool[S, E]) put(be *batchExec[S, E]) {
	bp.mu.Lock()
	bp.free = append(bp.free, be)
	bp.mu.Unlock()
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

// chunkResult is one map chunk's symbolic output: per key, in the
// order the executor ran them, the encoded summary bundle and the
// segment index of the key's last record — the recordID of the bundle
// in the §5.4 (key, mapperID, recordID) shuffle order — plus the work
// counters. Order-aligned slices, not maps: the timed execution pass
// appends instead of hashing.
type chunkResult struct {
	order   []string
	bundles [][]byte
	lastRec []int64
	stats   SymStats
}

// symExecChunk is the one place events reach a symbolic executor: it
// runs the per-key UDA loop over a map task's segment in two passes.
// Pass one fills a Batch — through the query's GroupByBatch over the
// segment's typed-column index, whose columns the first job to read each
// builds and every later one finds resident, else through the
// scalar GroupBy per record; that selection is made here, from the
// input, and nowhere else — and counting-sorts the key-index vector into
// per-key contiguous event vectors. Pass two runs each key through the
// site: Reset, feed the key's vector to the executor's batch API
// (FeedBatch, which folds runs of identical events as units and
// executes quiet stretches in place), and append
// the key's bundle — encoded straight from the executor's paths — to the
// chunk's slab.
// Batching keeps per-record map lookups out of the symbolic hot loop and
// lets pass two be timed on its own (stats.ExecWall), net of the parse
// cost every engine shares.
func symExecChunk[S sym.State, E, R any](q *Query[S, E, R], sc *sym.Schema[S], pool *batchExecPool[S, E], seg *mapreduce.Segment, trace *obs.Trace, mapperID int) (chunkResult, error) {
	out := chunkResult{}
	be := pool.get()
	if be == nil {
		be = &batchExec[S, E]{fast: sym.NewSchemaExecutor(sc, q.Update, q.Options)}
	}
	parseSpan := trace.Start(obs.KindMapParse, fmt.Sprintf("parse-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrRecords, int64(len(seg.Records)))
	b := &be.batch
	b.Keys = nil // the previous chunk's keys left with its result
	var cols *mapreduce.Columnar
	if q.GroupByBatch != nil && q.Columns.Plan != nil {
		cols = seg.Index(q.Columns, parseSpan)
	}
	if cols == nil || !q.GroupByBatch(cols, b) {
		// No index under this query's plan (none set, or the segment is
		// resident under another's), or columns that don't match the
		// shape the query compiled against; the batch content is then
		// unspecified and rebuilt scalar.
		scalarBatch(q, seg.Records, b)
	}
	out.order = b.Keys
	parseSpan.Attr(obs.AttrGroups, int64(len(b.Keys))).
		Attr(obs.AttrBatchRecords, int64(len(b.Events))).End()

	// Counting sort over the key-index vector: per-key contiguous event
	// runs without per-record map lookups or per-key slice growth.
	nk := len(b.Keys)
	be.offs = sized(be.offs, nk+1)
	offs := be.offs
	clear(offs)
	for _, ki := range b.KeyIdx {
		offs[ki+1]++
	}
	for i := 1; i <= nk; i++ {
		offs[i] += offs[i-1]
	}
	be.events, be.cur = sized(be.events, len(b.Events)), sized(be.cur, nk)
	events, cur := be.events, be.cur
	last := make([]int64, nk)
	copy(cur, offs[:nk])
	for r, ki := range b.KeyIdx {
		events[cur[ki]] = b.Events[r]
		cur[ki]++
		last[ki] = int64(b.Rows[r]) // rows ascend, so the final write is the max
	}

	// lastRec falls straight out of the counting sort; the bundle list is
	// sized here so the timed pass below only appends.
	out.lastRec = last
	out.bundles = make([][]byte, 0, nk)

	start := time.Now()
	execSpan := trace.Start(obs.KindMapExec, fmt.Sprintf("exec-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrGroups, int64(len(b.Keys))).
		Attr(obs.AttrBatchRecords, int64(len(b.Events)))
	fast, enc := be.fast, &be.enc
	prev := fast.Stats()
	var slab bundleSlab
	// needReset tracks whether the executor has run a key since its last
	// reset; the all-identity shortcut below bypasses the executor's
	// paths entirely and so neither needs nor forces one. A pooled
	// executor arrives with the previous chunk's last key still live.
	needReset := be.used
	for ki, key := range b.Keys {
		evs := events[offs[ki]:offs[ki+1]]
		if bundle := fast.IdentityBundle(evs); bundle != nil {
			out.bundles = append(out.bundles, bundle)
			out.stats.Summaries++
			continue
		}
		if needReset {
			fast.Reset()
		}
		needReset = true
		err := fast.FeedBatch(evs)
		n := 0
		if err == nil {
			enc.Reset()
			n, err = fast.AppendBundle(enc)
		}
		if err != nil {
			// The site is dropped, not repooled: an errored executor's
			// path state is unspecified, and the attempt is over.
			execSpan.Tag(obs.TagOutcome, "error").End()
			return out, fmt.Errorf("key %q: %w", key, err)
		}
		out.bundles = append(out.bundles, slab.put(enc.Bytes()))
		out.stats.Summaries += n
	}
	addStatsDelta(&out.stats, fast.Stats(), prev)
	out.stats.ExecWall = time.Since(start)
	execSpan.End()
	be.used = needReset
	pool.put(be)
	return out, nil
}

// slabChunk is the allocation unit of a bundleSlab: a heap object per
// thousand or so bundles (tens of bytes each on high-cardinality
// queries), and a last chunk whose unfilled tail is noise beside them.
const slabChunk = 64 << 10

// bundleSlab lays one map task's encoded bundles back to back in
// slabChunk-sized arrays instead of one heap object per (mapper, group).
// The shuffle — and after it the serve cache — retains emitted values,
// so each is a cap-clipped sub-slice: nothing can append over a
// neighbour. A slab belongs to one task, so a retained value pins chunks
// of its own segment's output only.
type bundleSlab struct{ chunk []byte }

// put copies one encoded bundle into the slab and returns the copy. A
// bundle larger than a chunk gets an array of its own.
func (b *bundleSlab) put(bundle []byte) []byte {
	if cap(b.chunk)-len(b.chunk) < len(bundle) {
		b.chunk = make([]byte, 0, max(len(bundle), slabChunk))
	}
	off := len(b.chunk)
	b.chunk = append(b.chunk, bundle...)
	return b.chunk[off:len(b.chunk):len(b.chunk)]
}
