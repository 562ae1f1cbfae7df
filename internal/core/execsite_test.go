package core

import (
	"iter"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/mapreduce"
	"repro/internal/sym"
)

// mapBundles runs a map-only job of the engine's mapper over segs on
// pool and returns every task's emitted (key, bundle) pairs in emit
// order.
func mapBundles[S sym.State, E, R any](t *testing.T, q *Query[S, E, R], sc *sym.Schema[S],
	pool *sitePool[*batchExec[S, E]], segs []*mapreduce.Segment, conf mapreduce.Config) [][]string {
	t.Helper()
	out := make([][]string, len(segs))
	var mu sync.Mutex
	job := &mapreduce.Job{
		Name: "bundles",
		Map:  sympleMapFunc(q, sc, pool, &mu, &SymStats{}, nil, nil),
		Output: func(task int, pairs iter.Seq2[string, []byte]) error {
			var got []string
			for k, v := range pairs {
				got = append(got, k+"="+string(v))
			}
			mu.Lock()
			out[task] = got
			mu.Unlock()
			return nil
		},
		Conf: conf,
	}
	if _, err := job.Run(segs); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExecSitePoolSteadyState: map tasks that draw their exec sites from
// one pool build containers while the first chunks run and none after —
// a site keeps what its chunks needed — and eight tasks running at once
// over that pool (the -race leg's subject) emit, byte for byte, what one
// task at a time does. The subject is the exec site's symbolic path, so
// most (mapper, key) groups are too large to ship their events: 12.5
// records on average, a tenth of them eight or fewer.
func TestExecSitePoolSteadyState(t *testing.T) {
	q := sessionQuery()
	c, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Schema()
	segs := makeSegments(sessionInput(rand.New(rand.NewSource(41)), 16000, 160), 8)
	want := mapBundles(t, q, sc, &sitePool[*batchExec[*sessState, int64]]{}, segs, mapreduce.Config{Parallelism: 1})

	// The pool starts with eight sites, each warmed by a job of its own,
	// so no job of eight concurrent tasks starts a site after them.
	pool := &sitePool[*batchExec[*sessState, int64]]{}
	for range 8 {
		one := &sitePool[*batchExec[*sessState, int64]]{}
		mapBundles(t, q, sc, one, segs, mapreduce.Config{Parallelism: 1})
		pool.free = append(pool.free, one.free...)
	}
	conf := mapreduce.Config{Parallelism: 8}
	mapBundles(t, q, sc, pool, segs, conf)
	base := sc.Allocated()
	for round := 0; round < 5; round++ {
		got := mapBundles(t, q, sc, pool, segs, conf)
		for task := range want {
			if len(got[task]) != len(want[task]) {
				t.Fatalf("round %d task %d: %d bundles, want %d", round, task, len(got[task]), len(want[task]))
			}
			for i := range want[task] {
				if got[task][i] != want[task][i] {
					t.Fatalf("round %d task %d bundle %d: concurrent sites emitted %q, one site %q", round, task, i, got[task][i], want[task][i])
				}
			}
		}
	}
	if len(pool.free) != 8 {
		t.Errorf("the pool holds %d sites after jobs of 8 concurrent tasks, want the 8 it started with", len(pool.free))
	}
	// Every site is warm, so the five jobs after the warm-up build no
	// more than it did.
	if grew := sc.Allocated() - base; grew > base {
		t.Errorf("the schema built %d containers warming the pool and %d more in the next five jobs", base, grew)
	}
}

// chaosSeedCount reads the CHAOS_SEEDS override shared with the engine's
// chaos sweeps.
func chaosSeedCount(t *testing.T, def int) int {
	t.Helper()
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		return n
	}
	return def
}

// TestChaosDroppedExecSite: a map attempt that errors inside its exec
// site (an Update that aborts mid-chunk) or is killed around it never
// puts the site back — the pool only ever holds sites whose last chunk
// ran to the end — so whatever attempt finally commits emits the
// fault-free bytes, on the pool the failures left behind, job after job.
// The fuse needs Update to run in the map, so the subject is groups too
// large to ship their events: about 17 records per (mapper, key).
func TestChaosDroppedExecSite(t *testing.T) {
	q := sessionQuery()
	// fuse, when armed, makes the Update call it counts down to read a
	// symbolic count: the executor aborts and the attempt errors.
	var fuse atomic.Int64
	update := q.Update
	q.Update = func(ctx *sym.Ctx, s *sessState, ts int64) {
		if fuse.Load() > 0 && fuse.Add(-1) == 0 {
			s.Count.Get()
		}
		update(ctx, s, ts)
	}
	c, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Schema()
	segs := makeSegments(sessionInput(rand.New(rand.NewSource(42)), 6000, 60), 6)
	// The second leg's live-path cap of 1 makes every forking key
	// restart, so the site appends multi-summary bundles.
	for _, opts := range []sym.Options{{}, {MaxLivePaths: 1}} {
		q.Options = opts
		fuse.Store(0)
		want := mapBundles(t, q, sc, &sitePool[*batchExec[*sessState, int64]]{}, segs, mapreduce.Config{Parallelism: 1})
		pool := &sitePool[*batchExec[*sessState, int64]]{}
		var injected, aborted int64
		for seed := 0; seed < chaosSeedCount(t, 8); seed++ {
			plan := mapreduce.NewFaultPlan(int64(seed)).WithRate(0.3).WithMaxDelay(time.Millisecond).
				WithPoints(mapreduce.PointMapStart, mapreduce.PointMapEmit, mapreduce.PointMapMid, mapreduce.PointSpillWrite)
			fuse.Store(int64(500 + 700*(seed%8)))
			// The fuse is a failure the plan does not know of, so it can
			// take the final attempt the plan spares: the task then fails
			// if the plan failed every attempt before it — seven in a row
			// with eight attempts, where five in a row (a few percent of
			// runs) sank it with six.
			got := mapBundles(t, q, sc, pool, segs, mapreduce.Config{
				Parallelism: 4, MaxAttempts: 8, RetryBackoff: time.Microsecond, Speculation: true, Faults: plan})
			if fuse.Load() == 0 {
				aborted++
			}
			for task := range want {
				if len(got[task]) != len(want[task]) {
					t.Fatalf("cap %d seed %d task %d: %d bundles, want %d", opts.MaxLivePaths, seed, task, len(got[task]), len(want[task]))
				}
				for i := range want[task] {
					if got[task][i] != want[task][i] {
						t.Fatalf("cap %d seed %d task %d bundle %d diverged from the fault-free run", opts.MaxLivePaths, seed, task, i)
					}
				}
			}
			for i, be := range pool.free {
				if be.fast.Err() != nil {
					t.Fatalf("cap %d seed %d: pooled site %d carries %v", opts.MaxLivePaths, seed, i, be.fast.Err())
				}
			}
			injected += plan.Injected()
		}
		if injected == 0 || aborted == 0 {
			t.Errorf("cap %d: %d faults injected, %d executors aborted — the sweep is not arming", opts.MaxLivePaths, injected, aborted)
		}
	}
}

// TestMapChunkAllocCeiling: a map chunk on a warm exec site takes its
// per-key bundle array, its grouped form's arrays, its bundles' bytes
// and the GroupBy's key index from the site, which the previous
// chunk left them in — Emit copies what it keeps — so a warm chunk
// allocates none of them, whatever its key count; nor does a chunk the
// segment's memo answers, from its third touch on. The GroupBy here
// allocates nothing, so what is left is the two span names, and on a
// segment's first touch its memo entry.
func TestMapChunkAllocCeiling(t *testing.T) {
	q := maxQuery()
	keys := make([][]byte, 4000)
	for i := range keys {
		keys[i] = []byte("k" + strconv.Itoa(i))
	}
	q.GroupBy = func(rec []byte) ([]byte, int64, bool) {
		return keys[int(rec[0])|int(rec[1])<<8], int64(rec[2]), true
	}
	c, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Schema()
	const ceiling = 2.0
	for _, nkeys := range []int{10, len(keys)} {
		var records [][]byte
		for i := range 4 * len(keys) {
			k := i % nkeys
			records = append(records, []byte{byte(k), byte(k >> 8), byte(i * 7)})
		}
		// Seven segments over the records, each touched once by the
		// scratch leg (a warm-up chunk and AllocsPerRun's six), so no
		// memo answers it; the first is the memo leg's.
		segs := make([]*mapreduce.Segment, 7)
		for i := range segs {
			segs[i] = &mapreduce.Segment{Records: records}
		}
		pool := &sitePool[*batchExec[*maxState, int64]]{}
		mapFn := sympleMapFunc(q, sc, pool, &sync.Mutex{}, &SymStats{}, nil, nil)
		var bundleBytes, next int
		chunk := func() {
			bundleBytes = 0
			if err := mapFn(0, segs[next%len(segs)], func(_ string, _ int64, v []byte) { bundleBytes += len(v) }); err != nil {
				t.Fatal(err)
			}
		}
		scratch := func() { chunk(); next++ }
		scratch()
		be := pool.free[0]
		bundles, last, events, enc := unsafe.SliceData(be.bundles), unsafe.SliceData(be.g.last),
			unsafe.SliceData(be.g.events), unsafe.SliceData(be.enc.Bytes())
		allocs := testing.AllocsPerRun(5, scratch)
		if len(pool.free) != 1 || pool.free[0] != be {
			t.Fatalf("%d keys: the pool holds %d sites, want the one warm site", nkeys, len(pool.free))
		}
		if unsafe.SliceData(be.bundles) != bundles || unsafe.SliceData(be.g.last) != last ||
			unsafe.SliceData(be.g.events) != events || unsafe.SliceData(be.enc.Bytes()) != enc {
			t.Errorf("%d keys: a warm chunk replaced the site's bundle, last-row, event or bundle-byte array", nkeys)
		}
		if allocs > ceiling+1 && !raceEnabled {
			t.Errorf("%d keys, %d bundle bytes: %v allocations a warm chunk's first touch, want at most %v", nkeys, bundleBytes, allocs, ceiling+1)
		}
		// segs[0] again: AllocsPerRun's warm-up is its second touch,
		// which keeps the memo every measured chunk reads.
		next = 0
		allocs = testing.AllocsPerRun(5, chunk)
		if keptForm(segs[0], q) == nil {
			t.Fatalf("%d keys: a segment touched seven times keeps no grouped form", nkeys)
		}
		if allocs > ceiling && !raceEnabled {
			t.Errorf("%d keys, %d bundle bytes: %v allocations a memo-hit chunk, want at most %v", nkeys, bundleBytes, allocs, ceiling)
		}
	}
}
