package mapreduce

import (
	"slices"
	"strings"
	"sync"
)

// A spillRun is one mapper's sorted output for one reduce partition, as
// the reducer holds it: the in-process analogue of a Hadoop spill file.
// A run crosses the map→reduce boundary in encoded segment form (Run,
// segcodec.go); the reducer decodes it into a pooled record buffer on
// receipt. Runs are immutable once decoded; their record buffers come
// from and return to kvBufs.
type spillRun struct {
	recs  []kvRec
	bytes int64 // encoded segment size (wire bytes)
}

// sortRun key-sorts one mapper's partition in place into the shuffle
// order (key, mapperID, recordID, emit order); mapperID is constant
// within a run and never compared here. The comparison (key, recordID,
// seq) is a total order — seq breaks the (key, recordID) ties a
// multi-emitting record can produce — so the unstable pdqsort is safe
// and reproduces emit order exactly. pdqsort beats a stable merge sort
// here twice over: no rotation memmoves, and near-linear behaviour on
// the low-cardinality key sets real groupbys produce.
//
// Keys are compared by prefix first: an integer compare on a word the
// record already carries decides most pairs without following either
// string pointer. Equal prefixes (one key twice, keys sharing eight
// bytes, keys differing only past a NUL the padding hides) fall through
// to the full comparison, so the order is strings.Compare's exactly.
func sortRun(recs []kvRec) {
	for i := range recs {
		recs[i].prefix = keyPrefix(recs[i].key)
	}
	slices.SortFunc(recs, func(a, b kvRec) int {
		if a.prefix != b.prefix {
			if a.prefix < b.prefix {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		switch {
		case a.recordID < b.recordID:
			return -1
		case a.recordID > b.recordID:
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

// keyPrefix packs the key's first eight bytes big-endian, zero-padded:
// unsigned integer order on prefixes is byte order on those bytes.
func keyPrefix(key string) uint64 {
	if len(key) >= 8 {
		return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
			uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	}
	var p uint64
	for i := 0; i < len(key); i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// recLess is the shuffle's total order over records. Records from
// different runs never compare equal: a run holds a single mapper's
// records (pre-merge outputs hold disjoint mapper sets), so ties in
// (key, mapperID, recordID) — possible when one input record emits the
// same key twice — stay within one run, where sort stability preserves
// emit order.
func recLess(x, y *kvRec) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.mapperID != y.mapperID {
		return x.mapperID < y.mapperID
	}
	return x.recordID < y.recordID
}

// loserTree streams the k-way merge of sorted spill runs in recLess
// order. Internal nodes hold the losers of a tournament over the run
// heads; the overall winner is cached, so producing the next record
// replays exactly one leaf-to-root path — ⌈log₂k⌉ comparisons — instead
// of the 2·log₂k a binary heap pays. Leaves are virtual: run i sits at
// tree position i+k, which makes parent arithmetic ((pos)/2) uniform
// for any k, not just powers of two.
type loserTree struct {
	runs   []spillRun
	pos    []int // per-run cursor
	node   []int // node[1..k-1]: losing run index at that match
	winner int
	k      int
}

func newLoserTree(runs []spillRun) *loserTree {
	k := len(runs)
	t := &loserTree{runs: runs, pos: make([]int, k), k: k, winner: -1}
	if k == 0 {
		return t
	}
	t.node = make([]int, k)
	t.winner = t.build(1)
	return t
}

// build plays the tournament for the subtree rooted at node n, filling
// the loser slots, and returns the subtree's winning run index.
func (t *loserTree) build(n int) int {
	if n >= t.k {
		return n - t.k
	}
	w1 := t.build(2 * n)
	w2 := t.build(2*n + 1)
	if t.headLess(w1, w2) {
		t.node[n] = w2
		return w1
	}
	t.node[n] = w1
	return w2
}

// headLess orders runs by their current head record; exhausted runs sort
// last so they lose every match and drop out of the tournament.
func (t *loserTree) headLess(a, b int) bool {
	ea := t.pos[a] >= len(t.runs[a].recs)
	eb := t.pos[b] >= len(t.runs[b].recs)
	if ea || eb {
		return !ea || (eb && a < b)
	}
	return recLess(&t.runs[a].recs[t.pos[a]], &t.runs[b].recs[t.pos[b]])
}

// peek returns the smallest unconsumed record, or nil when the merge is
// done. The pointer is stable until the run buffers are released.
func (t *loserTree) peek() *kvRec {
	w := t.winner
	if w < 0 || t.pos[w] >= len(t.runs[w].recs) {
		return nil
	}
	return &t.runs[w].recs[t.pos[w]]
}

// advance consumes the current winner's head and replays its path to the
// root.
func (t *loserTree) advance() {
	w := t.winner
	t.pos[w]++
	for n := (w + t.k) / 2; n >= 1; n /= 2 {
		if t.headLess(t.node[n], w) {
			w, t.node[n] = t.node[n], w
		}
	}
	t.winner = w
}

// mergeTwo folds two sorted runs into one, returning the inputs' buffers
// to the pool. Used by reducers to compact early-arriving runs while
// later map tasks are still producing.
func mergeTwo(a, b spillRun) spillRun {
	out := kvBufs.get(len(a.recs) + len(b.recs))
	i, j := 0, 0
	for i < len(a.recs) && j < len(b.recs) {
		if recLess(&b.recs[j], &a.recs[i]) {
			out = append(out, b.recs[j])
			j++
		} else {
			out = append(out, a.recs[i])
			i++
		}
	}
	out = append(out, a.recs[i:]...)
	out = append(out, b.recs[j:]...)
	kvBufs.put(a.recs)
	kvBufs.put(b.recs)
	return spillRun{recs: out, bytes: a.bytes + b.bytes}
}

// kvBufs pools record buffers across tasks: map-side spill runs and
// reduce-side pre-merge outputs draw from and return to it, so steady-state shuffles reuse buffers
// instead of allocating per task.
var kvBufs kvBufPool

type kvBufPool struct{ p sync.Pool }

// get returns an empty buffer with capacity at least capHint when the
// pool can satisfy it, falling back to a fresh allocation.
func (kp *kvBufPool) get(capHint int) []kvRec {
	if v := kp.p.Get(); v != nil {
		s := (*v.(*[]kvRec))[:0]
		if cap(s) >= capHint {
			return s
		}
		kp.p.Put(v)
	}
	return make([]kvRec, 0, max(capHint, 64))
}

// put recycles a buffer, clearing it so pooled memory pins no user keys
// or values.
func (kp *kvBufPool) put(s []kvRec) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	kp.p.Put(&s)
}

// releaseRuns returns every run buffer to the pool.
func releaseRuns(runs []spillRun) {
	for i := range runs {
		kvBufs.put(runs[i].recs)
		runs[i].recs = nil
	}
}
