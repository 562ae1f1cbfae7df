package sym

import "reflect"

// DefaultMemoSize is the record-transition cache capacity used when a
// caller enables memoization without picking a size.
const DefaultMemoSize = 4096

// Adaptive cutoff: after memoWarmup lookups, a memo whose hit count is
// below memoMinHitNum/memoMinHitDen of its lookups disables itself and
// frees its cache. A miss costs more than direct exploration (the
// transition is built from the fully symbolic state AND composed), so
// memoization only pays on skewed/low-cardinality event streams; on
// near-unique streams (e.g. raw timestamps) the memo must get out of the
// way.
const (
	memoWarmup    = 128
	memoMinHitNum = 1
	memoMinHitDen = 2
)

// memoQuietStreak: after this many consecutive non-forking records the
// executor stops consulting its memo (see Executor.noForkRun). The
// adaptive cutoff above handles streams whose events don't repeat; this
// one handles streams whose events repeat but whose records never fork,
// where a cached transition saves nothing over a single Update run.
const memoQuietStreak = 16

// transition is a cached record-transition summary T_rec: the set of
// path states produced by exploring one record from the fully symbolic
// state. A nil ps marks a negative entry — the record's transition
// could not be built (path explosion from the unconstrained state, or a
// read of a value only a concrete run binds) and the record must always
// be explored directly.
type transition[S State] struct {
	ps []*pathState[S]
}

// Memo is a bounded record-transition cache (tentpole part 2): it maps a
// record-equivalence class to the pre-built transition summary of that
// record, so repeated records skip path exploration entirely and fold
// into the live paths by summary composition. The key is the projected
// event E itself — queries project exactly the fields the UDA reads into
// E (the read-set), so two equal E values are by construction
// indistinguishable to Update.
//
// Eviction is FIFO over insertion order, which is cheap, allocation-free
// amortized, and good enough for the skewed record distributions that
// make memoization pay (the hot classes are re-inserted immediately
// after an unlucky eviction). The executor the memo is attached to owns
// the containers of its transitions: it builds them from its stack and
// takes an evicted transition's back.
//
// A Memo is NOT safe for concurrent use; give each worker its own (the
// parallel mapper does) while sharing the schema.
type Memo[S State, E any] struct {
	sc  *Schema[S]
	cap int
	// E is not constrained comparable (the executor API predates the
	// memo), so the map is keyed by any: comparability is proved once by
	// reflection in NewMemo. Lookups do not escape their key and stay
	// allocation-free; only inserts box.
	m        map[any]*transition[S]
	fifo     []any
	head     int
	lookups  int64
	hits     int64
	evicts   int64
	disabled bool
}

// NewMemo returns a transition cache over sc holding at most size
// entries (DefaultMemoSize when size <= 0). It returns nil — memoization
// disabled — when E is not a comparable type and therefore cannot key a
// map; callers treat a nil memo as "always explore".
func NewMemo[S State, E any](sc *Schema[S], size int) *Memo[S, E] {
	var zero E
	t := reflect.TypeOf(zero)
	if t == nil || !t.Comparable() {
		return nil
	}
	if size <= 0 {
		size = DefaultMemoSize
	}
	return &Memo[S, E]{
		sc:   sc,
		cap:  size,
		m:    make(map[any]*transition[S], size),
		fifo: make([]any, 0, size),
	}
}

// active reports whether the memo is still worth consulting; false once
// the adaptive cutoff has disabled it.
func (m *Memo[S, E]) active() bool { return !m.disabled }

// get returns the cached transition for rec and whether an entry (even a
// negative one) exists.
func (m *Memo[S, E]) get(rec E) (*transition[S], bool) {
	m.lookups++
	tr, ok := m.m[rec]
	if ok {
		m.hits++
	}
	return tr, ok
}

// admit reports whether a missed record should have its transition built
// and cached. It is the adaptive-cutoff decision point: past the warmup,
// a hit rate below the floor disables the memo and frees its cache. The
// caller must not build (let alone add) when admit returns false —
// deciding before the build keeps cache ownership unambiguous.
func (m *Memo[S, E]) admit() bool {
	if m.disabled {
		return false
	}
	if m.lookups >= memoWarmup && m.hits*memoMinHitDen < m.lookups*memoMinHitNum {
		m.disabled = true
		m.Release()
		return false
	}
	return true
}

// add inserts a transition (nil for a negative entry). At capacity the
// oldest entry is evicted and, when it held a transition, returned for
// the caller to retire.
func (m *Memo[S, E]) add(rec E, tr *transition[S]) (evicted *transition[S]) {
	if _, dup := m.m[rec]; dup {
		return nil
	}
	if len(m.m) >= m.cap {
		old := m.fifo[m.head]
		m.head++
		if m.head >= len(m.fifo)/2 && m.head > 16 {
			m.fifo = append(m.fifo[:0], m.fifo[m.head:]...)
			m.head = 0
		}
		if ev, ok := m.m[old]; ok {
			delete(m.m, old)
			evicted = ev
			m.evicts++
		}
	}
	m.m[rec] = tr
	m.fifo = append(m.fifo, rec)
	return evicted
}

// Len returns the number of cached entries (including negative ones).
func (m *Memo[S, E]) Len() int { return len(m.m) }

// Evicts returns the number of evictions performed.
func (m *Memo[S, E]) Evicts() int64 { return m.evicts }

// Release empties the memo, dropping every cached transition.
func (m *Memo[S, E]) Release() {
	clear(m.m)
	m.fifo = m.fifo[:0]
	m.head = 0
}
