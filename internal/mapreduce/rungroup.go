package mapreduce

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/obs"
)

// A spillRun is one mapper's output for one reduce partition, in emit
// order, as the reducer holds it: the in-process analogue of a Hadoop
// spill file. A run crosses the map→reduce boundary in encoded segment
// form (Run, segcodec.go); the reducer decodes it into a pooled record
// buffer on receipt. Runs are immutable once decoded; their record
// buffers come from and return to kvBufs.
type spillRun struct {
	recs []kvRec
	// seg, the engine's own encoded run, is recycled when the run is.
	seg []byte
	// mapperID is the run header's, so a zero-record run still orders;
	// task breaks a tie between two segments sharing an ID.
	mapperID int
	task     int
}

// groupRuns lays out one partition's runs as key groups and streams each
// group to fn. Reading the runs in (mapperID, task) order, each in emit
// order, already is §5.4's order, so no key needs sorting: groups come
// in first-appearance order over that read, and a group's values in
// (mapperID, recordID) order, emit order among equal pairs. The layout
// pass is the attempt's merge span, the fn calls that follow its compose
// span. It never mutates the runs' records, so a retrying reduce attempt
// regroups identical inputs. It returns the groups streamed.
func groupRuns(trace *obs.Trace, part int, runs []spillRun,
	fn func(key string, group []Shuffled) error) (groups int64, err error) {
	name := fmt.Sprintf("part-%d", part)
	span := trace.Start(obs.KindMerge, name).
		Attr(obs.AttrPart, int64(part)).Attr(obs.AttrRuns, int64(len(runs)))
	g := groupers.Get().(*grouper)
	defer g.release()
	g.layout(runs)
	span.End()
	span = trace.Start(obs.KindCompose, name).Attr(obs.AttrPart, int64(part))
	start := int32(0)
	for id, key := range g.keys {
		end := g.ends[id]
		group := g.vals[start:end:end]
		start = end
		sortGroup(group)
		groups++
		if err = fn(key, group); err != nil {
			span.Tag(obs.TagOutcome, "error")
			break
		}
	}
	span.Attr(obs.AttrGroups, groups).Attr(obs.AttrValues, int64(start)).End()
	return groups, err
}

// grouper is a reduce attempt's grouping scratch, pooled across attempts.
type grouper struct {
	idx  map[string]int32 // key → group id, in first-appearance order
	keys []string         // group id → key
	ends []int32          // group id → end of its values in vals
	gids []int32          // record, in read order → its group id
	vals []Shuffled       // the partition's values, laid out group by group
}

var groupers = sync.Pool{
	New: func() any { return &grouper{idx: make(map[string]int32, 64)} },
}

// layout interns every record's key and places the records group by
// group with a stable counting sort on group id.
func (g *grouper) layout(runs []spillRun) {
	slices.SortFunc(runs, func(a, b spillRun) int {
		return cmp.Or(cmp.Compare(a.mapperID, b.mapperID), cmp.Compare(a.task, b.task))
	})
	n := 0
	for _, r := range runs {
		n += len(r.recs)
	}
	g.gids = slices.Grow(g.gids[:0], n)
	for _, r := range runs {
		for i := range r.recs {
			id, ok := g.idx[r.recs[i].key]
			if !ok {
				id = int32(len(g.keys))
				g.idx[r.recs[i].key] = id
				g.keys = append(g.keys, r.recs[i].key)
				g.ends = append(g.ends, 0)
			}
			g.ends[id]++
			g.gids = append(g.gids, id)
		}
	}
	// Counts become starts; placing a record advances its group's
	// start, which leaves each at the group's end.
	var at int32
	for id, c := range g.ends {
		g.ends[id] = at
		at += c
	}
	g.vals = slices.Grow(g.vals[:0], n)[:n]
	k := 0
	for _, r := range runs {
		for i := range r.recs {
			id := g.gids[k]
			k++
			g.vals[g.ends[id]] = Shuffled{MapperID: r.mapperID, RecordID: r.recs[i].recordID, Value: r.recs[i].value}
			g.ends[id]++
		}
	}
}

// release returns the scratch to the pool, cleared so it pins no keys or
// values; one enormous partition's scratch is left to the collector.
func (g *grouper) release() {
	if len(g.keys) > maxPooledKeyMap {
		return
	}
	clear(g.idx)
	clear(g.keys)
	clear(g.vals)
	g.keys, g.ends, g.gids, g.vals = g.keys[:0], g.ends[:0], g.gids[:0], g.vals[:0]
	groupers.Put(g)
}

// sortGroup puts one group in (mapperID, recordID) order. The layout
// already has mapperIDs ascending and each mapper's values in emit
// order, so a linear check settles it unless a map emitted a key's
// records out of recordID order; the stable sort then keeps emit order
// among equal pairs.
func sortGroup(group []Shuffled) {
	for i := 1; i < len(group); i++ {
		if cmpShuffled(group[i-1], group[i]) > 0 {
			slices.SortStableFunc(group, cmpShuffled)
			return
		}
	}
}

func cmpShuffled(a, b Shuffled) int {
	return cmp.Or(cmp.Compare(a.MapperID, b.MapperID), cmp.Compare(a.RecordID, b.RecordID))
}

// kvBufs pools the reduce side's decoded runs across tasks by capacity
// class — class k holds capacities of at least 1<<k — so a run decodes
// into a buffer that holds it. partBufs pools the map side's partition
// buffers apart: each keeps the capacity its emits grew it to, so the
// next attempt's emits fill it instead of regrowing a buffer sized for
// one decoded run.
var (
	kvBufs   [64]sync.Pool
	partBufs sync.Pool
)

// getKVBuf returns an empty buffer of capacity at least n.
func getKVBuf(n int) []kvRec {
	k := bits.Len(uint(max(n, 1) - 1))
	if v := kvBufs[k].Get(); v != nil {
		return *v.(*[]kvRec)
	}
	return make([]kvRec, 0, 1<<k)
}

// putKVBuf recycles a decoded run's buffer into the class its capacity
// fills.
func putKVBuf(s []kvRec) {
	if cap(s) > 0 {
		kvBufs[bits.Len(uint(cap(s)))-1].Put(cleared(s))
	}
}

// getPartBuf returns an empty partition buffer a past attempt grew, or
// nil.
func getPartBuf() []kvRec {
	if v := partBufs.Get(); v != nil {
		return *v.(*[]kvRec)
	}
	return nil
}

// putPartBuf recycles a partition buffer.
func putPartBuf(s []kvRec) {
	if cap(s) > 0 {
		partBufs.Put(cleared(s))
	}
}

// cleared empties s for its pool, clearing what it held so pooled memory
// pins no user keys or values. Its users only append, so nothing past
// its length was ever written.
func cleared(s []kvRec) *[]kvRec {
	clear(s)
	s = s[:0]
	return &s
}

// releaseRuns returns every run's record buffer and encoded segment to
// their pools.
func releaseRuns(runs []spillRun) {
	for i := range runs {
		putKVBuf(runs[i].recs)
		putRunBuf(runs[i].seg)
		runs[i].recs, runs[i].seg = nil, nil
	}
}

// valueArena holds one map attempt's emitted values back to back in
// 64 KB chunks (a larger value gets one of its own), each cap-clipped:
// Emit copies into it, so a mapper reuses its own buffers. An attempt
// returns its arena to arenas once its values are dead — its runs
// encoded, its pairs handed to Output, or the attempt failed — and the
// next attempt refills the chunks.
type valueArena struct {
	chunks [][]byte
	cur    int // the chunk being filled
}

var arenas = sync.Pool{New: func() any { return new(valueArena) }}

// copy returns a copy of v in the arena.
func (a *valueArena) copy(v []byte) []byte {
	for a.cur < len(a.chunks) && cap(a.chunks[a.cur])-len(a.chunks[a.cur]) < len(v) {
		a.cur++
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, 0, max(len(v), 64<<10)))
	}
	c := a.chunks[a.cur]
	a.chunks[a.cur] = append(c, v...)
	return a.chunks[a.cur][len(c) : len(c)+len(v) : len(c)+len(v)]
}

// release empties the arena into the pool. nil is a no-op.
func (a *valueArena) release() {
	if a == nil {
		return
	}
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
	arenas.Put(a)
}
