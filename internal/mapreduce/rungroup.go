package mapreduce

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
)

// partTable is a reduce task's scratch, pooled across tasks: every run
// of its partition decoded into one record slice, each run's place in
// it, and the grouping pass's index. A run crosses the map→reduce
// boundary in encoded segment form (Run, segcodec.go) and is decoded
// into the table on receipt; its records are never mutated after, so a
// retrying reduce attempt regroups identical inputs.
type partTable struct {
	recs []kvRec    // every run's records, in arrival order
	runs []spillRun // each run's range of recs
	// segs are the engine's own encoded runs, which decoded values
	// alias: recycled with the table.
	segs [][]byte

	// The grouping pass's scratch, emptied after every pass. It indexes
	// records rather than copying them, so the tables a job's reduce
	// tasks hold at once keep one group's values each, not a partition's.
	idx   map[string]int32 // key → group id, in first-appearance order
	ends  []int32          // group id → end of its records in order
	gids  []int32          // record, in read order → its group id
	order []int32          // the records' indexes in recs, group by group
	vals  []Shuffled       // the group being streamed
}

// A spillRun is one mapper's output for one reduce partition, in emit
// order: the in-process analogue of a Hadoop spill file, held as its
// range of the table's records. mapperID is the run header's, so a
// zero-record run still orders; task breaks a tie between two segments
// sharing an ID.
type spillRun struct {
	lo, hi   int
	mapperID int
	task     int
}

var partTables = sync.Pool{
	New: func() any { return &partTable{idx: make(map[string]int32, 64)} },
}

// maxPooledKeyMap bounds the distinct keys a pooled scratch's key map
// has held, so one enormous run or partition does not pin its buckets.
const maxPooledKeyMap = 1 << 16

// release returns the table to the pool, recycling the encoded runs and
// clearing the records so pooled memory pins no keys or values; a table
// that grouped an enormous partition is left to the collector.
func (t *partTable) release() {
	for _, s := range t.segs {
		putRunBuf(s)
	}
	if cap(t.ends) > maxPooledKeyMap {
		return
	}
	clear(t.recs)
	clear(t.segs)
	t.recs, t.runs, t.segs = t.recs[:0], t.runs[:0], t.segs[:0]
	partTables.Put(t)
}

// decodeRun decodes one committed run into the table under a seg_decode
// span carrying the run's producer identity — the consumption record
// the trace verifier joins against run_commit events for the
// merged-exactly-once invariant. A run that fails to decode leaves the
// table as it was.
func (t *partTable) decodeRun(trace *obs.Trace, part int, r Run) error {
	span := trace.Start(obs.KindSegDecode, fmt.Sprintf("part-%d", part)).
		Attr(obs.AttrTask, int64(r.Task)).Attr(obs.AttrAttempt, int64(r.Attempt)).
		Attr(obs.AttrPart, int64(r.Part)).Attr(obs.AttrBytes, int64(len(r.Seg)))
	lo := len(t.recs)
	recs, mapperID, err := decodeSegment(t.recs, r.Seg)
	t.recs = recs
	if err != nil {
		span.Tag(obs.TagOutcome, "error").End()
		return fmt.Errorf("run (task %d attempt %d part %d): %w", r.Task, r.Attempt, r.Part, err)
	}
	span.End()
	t.runs = append(t.runs, spillRun{lo: lo, hi: len(recs), mapperID: mapperID, task: r.Task})
	return nil
}

// group lays out the table's runs as key groups and streams each group
// to fn. Reading the runs in (mapperID, task) order, each in emit order,
// already is §5.4's order, so no key needs sorting: groups come in
// first-appearance order over that read, and a group's values in
// (mapperID, recordID) order, emit order among equal pairs. The layout
// pass is the attempt's merge span, the fn calls that follow its compose
// span. It returns the groups streamed.
func (t *partTable) group(trace *obs.Trace, part int,
	fn func(key string, group []Shuffled) error) (groups int64, err error) {
	name := fmt.Sprintf("part-%d", part)
	span := trace.Start(obs.KindMerge, name).
		Attr(obs.AttrPart, int64(part)).Attr(obs.AttrRuns, int64(len(t.runs)))
	defer t.clearGroups()
	t.layout()
	span.End()
	span = trace.Start(obs.KindCompose, name).Attr(obs.AttrPart, int64(part))
	start := int32(0)
	for _, end := range t.ends {
		key := t.recs[t.order[start]].key
		t.vals = t.vals[:0]
		for _, i := range t.order[start:end] {
			t.vals = append(t.vals, Shuffled{MapperID: t.recs[i].mapperID, RecordID: t.recs[i].recordID, Value: t.recs[i].value})
		}
		start = end
		group := slices.Clip(t.vals)
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

// layout interns every record's key and orders the records' indexes
// group by group with a stable counting sort on group id.
func (t *partTable) layout() {
	slices.SortFunc(t.runs, func(a, b spillRun) int {
		return cmp.Or(cmp.Compare(a.mapperID, b.mapperID), cmp.Compare(a.task, b.task))
	})
	n := len(t.recs)
	t.gids = slices.Grow(t.gids[:0], n)
	for _, r := range t.runs {
		for i := r.lo; i < r.hi; i++ {
			id, ok := t.idx[t.recs[i].key]
			if !ok {
				id = int32(len(t.ends))
				t.idx[t.recs[i].key] = id
				t.ends = append(t.ends, 0)
			}
			t.ends[id]++
			t.gids = append(t.gids, id)
		}
	}
	// Counts become starts; placing a record advances its group's
	// start, which leaves each at the group's end.
	var at int32
	for id, c := range t.ends {
		t.ends[id] = at
		at += c
	}
	t.order = slices.Grow(t.order[:0], n)[:n]
	k := 0
	for _, r := range t.runs {
		for i := r.lo; i < r.hi; i++ {
			id := t.gids[k]
			k++
			t.order[t.ends[id]] = int32(i)
			t.ends[id]++
		}
	}
}

// clearGroups empties the grouping scratch for the next pass, clearing
// what it held so it pins no keys or values.
func (t *partTable) clearGroups() {
	clear(t.idx)
	clear(t.vals)
	t.ends, t.gids, t.order, t.vals = t.ends[:0], t.gids[:0], t.order[:0], t.vals[:0]
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
