package core

import (
	"fmt"
	"runtime"
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

// scalarBatch is the fallback vectorizer: the scalar GroupBy per record,
// keys interned in idx (emptied first). It makes GroupByBatch optional —
// a query without one, or a segment indexed under another query's plan,
// still runs on the one batched executor.
func scalarBatch[S sym.State, E, R any](q *Query[S, E, R], records [][]byte, b *Batch[E], idx map[string]int32) {
	b.Reset()
	clear(idx)
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
// a chunk is staged in. Pooled per compiled query (Compiled) so the
// executor's run cache and container stack — which depend only on the
// schema and update function, never on the chunk — stay warm across
// chunks and jobs. A site is pooled again only by the attempt
// that ran it to the end and emitted its result: one that errored or was
// killed mid-chunk is simply dropped. used marks an executor that has
// fed keys since its last Reset and so needs one before its next
// FeedBatch.
type batchExec[S sym.State, E any] struct {
	fast *sym.Executor[S, E]
	used bool

	// Chunk scratch, reused by the site's next chunk once Emit has copied
	// this one's result: the GroupBy batch and the scalar GroupBy's key
	// index, the counting-sorted events and the sort's offsets and
	// cursors, and per key of batch.Keys its bundle (a slice of enc) and
	// last row, the bundle's recordID in §5.4's shuffle order.
	batch     Batch[E]
	idx       map[string]int32
	events    []E
	offs, cur []int32
	enc       wire.Encoder
	bundles   [][]byte
	last      []int64
}

// sized returns s resliced to n elements, reallocated only when its
// capacity falls short; the contents are unspecified.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// batchExecPool hands batch executors to the concurrently running map
// tasks of a compiled query's jobs. Zero value is ready; an empty pool means the
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
// site's encoder, behind the chunk's earlier bundles.
// Batching keeps per-record map lookups out of the symbolic hot loop and
// lets pass two be timed on its own (stats.ExecWall), net of the parse
// cost every engine shares.
func symExecChunk[S sym.State, E, R any](q *Query[S, E, R], be *batchExec[S, E], seg *mapreduce.Segment, trace *obs.Trace, mapperID int) (stats SymStats, err error) {
	parseSpan := trace.Start(obs.KindMapParse, fmt.Sprintf("parse-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrRecords, int64(len(seg.Records)))
	b := &be.batch
	var cols *mapreduce.Columnar
	if q.GroupByBatch != nil && q.Columns.Plan != nil {
		cols = seg.Index(q.Columns, parseSpan)
	}
	if cols == nil || !q.GroupByBatch(cols, b) {
		// No index under this query's plan (none set, or the segment is
		// resident under another's), or columns that don't match the
		// shape the query compiled against; the batch content is then
		// unspecified and rebuilt scalar.
		scalarBatch(q, seg.Records, b, be.idx)
	}
	// The records are read up to here; keys that view them leave with
	// the result, and the map task body keeps seg reachable past them.
	runtime.KeepAlive(seg)
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
	be.last = sized(be.last, nk)
	events, cur, last := be.events, be.cur, be.last
	copy(cur, offs[:nk])
	for r, ki := range b.KeyIdx {
		events[cur[ki]] = b.Events[r]
		cur[ki]++
		last[ki] = int64(b.Rows[r]) // rows ascend, so the final write is the max
	}

	// The last rows fall straight out of the counting sort; the bundle
	// list is sized here so the timed pass below only appends.
	be.bundles = slices.Grow(be.bundles[:0], nk)

	start := time.Now()
	execSpan := trace.Start(obs.KindMapExec, fmt.Sprintf("exec-%d", mapperID)).
		Attr(obs.AttrTask, int64(mapperID)).
		Attr(obs.AttrGroups, int64(len(b.Keys))).
		Attr(obs.AttrBatchRecords, int64(len(b.Events)))
	fast, enc := be.fast, &be.enc
	enc.Reset()
	prev := fast.Stats()
	// needReset tracks whether the executor has run a key since its last
	// reset; the all-identity shortcut below bypasses the executor's
	// paths entirely and so neither needs nor forces one. A pooled
	// executor arrives with the previous chunk's last key still live.
	needReset := be.used
	for ki, key := range b.Keys {
		evs := events[offs[ki]:offs[ki+1]]
		if bundle := fast.IdentityBundle(evs); bundle != nil {
			be.bundles = append(be.bundles, bundle)
			stats.Summaries++
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
			return stats, fmt.Errorf("key %q: %w", key, err)
		}
		// Clipped, so nothing appends over the next key's; an array enc
		// outgrows keeps its bundles until they are emitted.
		be.bundles = append(be.bundles, enc.Bytes()[at:enc.Len():enc.Len()])
		stats.Summaries += n
	}
	addStatsDelta(&stats, fast.Stats(), prev)
	stats.ExecWall = time.Since(start)
	execSpan.End()
	be.used = needReset
	return stats, nil
}
