package sym

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Forked paths share a vector's backing array, and Push is a plain
// append: isolation rests on CopyFrom clipping the receiver so that at
// most one holder has spare capacity (see SymVector). These tests attack
// that invariant from the value level and through the executor's
// in-place windows, and pin the allocation count that makes it worth
// having.

// vectorModel drives one vector type beside a plain-slice model: push
// appends an element made from x and returns it as the model reads it.
type vectorModel[V any] struct {
	push  func(v *V, x int64) intElem
	copy  func(dst, src *V)
	elems func(v *V) []intElem
}

var symVectorModel = vectorModel[SymVector[int64]]{
	push: func(v *SymVector[int64], x int64) intElem {
		v.Push(x)
		return intElem{b: x}
	},
	copy: func(dst, src *SymVector[int64]) { dst.CopyFrom(src) },
	elems: func(v *SymVector[int64]) []intElem {
		out := make([]intElem, v.Len())
		for i, x := range v.Elems() {
			out[i] = intElem{b: x}
		}
		return out
	},
}

// symIntVectorModel pushes concrete and symbolic elements alike —
// bound and symbolic PushInt and PushEnum beside Push — so the side
// list of symbolic slots is forked, clipped and appended to as the
// values are.
var symIntVectorModel = vectorModel[SymIntVector]{
	push: func(v *SymIntVector, x int64) intElem {
		field := int(x % 3)
		switch x % 5 {
		case 1:
			s := NewSymInt(0)
			s.ResetSymbolic(field)
			s.a, s.b = x, -x
			v.PushInt(&s)
			return intElem{sym: true, field: field, a: x, b: -x}
		case 2:
			s := NewSymEnum(4, 0)
			s.ResetSymbolic(field)
			v.PushEnum(&s)
			return intElem{sym: true, field: field, a: 1}
		case 3:
			s := NewSymInt(x)
			v.PushInt(&s)
		default:
			v.Push(x)
		}
		return intElem{b: x}
	},
	copy:  func(dst, src *SymIntVector) { dst.CopyFrom(src) },
	elems: intElems,
}

// checkForkIsolation runs a random schedule of pushes and CopyFroms over
// a handful of holders — forks, snapshots and restores are all CopyFrom
// in one direction or the other — and checks after every step that each
// holder reads exactly what was pushed on its own lineage, element by
// element as (sym, field, a, b).
func checkForkIsolation[V any](t *testing.T, m vectorModel[V], seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	const holders = 5
	vecs := make([]V, holders)
	want := make([][]intElem, holders)
	next := int64(1)
	for step := 0; step < 400; step++ {
		i := r.Intn(holders)
		if r.Intn(4) == 0 {
			j := r.Intn(holders)
			if j == i {
				continue
			}
			m.copy(&vecs[i], &vecs[j])
			want[i] = slices.Clone(want[j])
		} else {
			// Bursts, so a holder that owns spare capacity appends into it
			// while clipped views of the same array are live.
			for k := 1 + r.Intn(6); k > 0; k-- {
				want[i] = append(want[i], m.push(&vecs[i], next))
				next++
			}
		}
		for h := range vecs {
			if got := m.elems(&vecs[h]); !slices.Equal(got, want[h]) {
				t.Fatalf("seed %d step %d: holder %d reads %v, pushed %v", seed, step, h, got, want[h])
			}
		}
	}
}

func TestVectorForksNeverShareAppends(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		checkForkIsolation(t, symVectorModel, seed)
		checkForkIsolation(t, symIntVectorModel, seed)
		// Every holder grows in one site's storage, as a site's paths do:
		// a region, and the last one taken grown in place, is one
		// holder's alone.
		site, onSite := new(vecArena), symIntVectorModel
		onSite.push = func(v *SymIntVector, x int64) intElem {
			v.site = site
			return symIntVectorModel.push(v, x)
		}
		checkForkIsolation(t, onSite, seed)
	}
}

// forkLog forks once on Base, which stays symbolic on both paths, then
// logs records on both: the even ones on each, and every third on one of
// them too.
type forkLog struct {
	Base SymInt
	Log  SymIntVector
}

func (s *forkLog) Fields() []Value { return []Value{&s.Base, &s.Log} }

func newForkLog() *forkLog { return &forkLog{Base: NewSymInt(0)} }

func forkLogUpdate(ctx *Ctx, s *forkLog, e int64) {
	if e%3 == 0 && s.Base.Lt(ctx, 10) {
		s.Log.Push(-e)
	}
	if e%2 == 0 {
		s.Log.Push(e)
	}
}

// TestExecSiteRetiredStorageNeverAliases: the scalar feed clones each
// live path per record and retires the original to the site's stack; a
// clone that pushes nothing still views the original's elements, and the
// next clone drawn from the original's container grows a vector of its
// own. Neither that growth, nor a later key's pushes after Reset
// reclaims the site's storage, may change what a sibling or Finish's
// snapshot holds.
func TestExecSiteRetiredStorageNeverAliases(t *testing.T) {
	x := NewSchemaExecutor(newSchema(newForkLog), forkLogUpdate, DefaultOptions())
	stream := make([]int64, 40)
	for i := range stream {
		stream[i] = int64(i + 1)
		if err := x.Feed(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := x.LivePaths(); got != 2 {
		t.Fatalf("%d live paths, want the fork's 2", got)
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	check(t, "the key's", stream, sums)
	x.Reset()
	for i := int64(0); i < 200; i++ {
		if err := x.Feed(1000 + i); err != nil {
			t.Fatal(err)
		}
	}
	check(t, "after the next key, the key's", stream, sums)
}

// check applies sums, forkLog's summaries of stream, to both starts.
func check(t *testing.T, what string, stream []int64, sums []*Summary[*forkLog]) {
	t.Helper()
	for _, base := range []int64{0, 20} {
		start := func() *forkLog { s := newForkLog(); s.Base = NewSymInt(base); return s }
		seq := NewConcreteExecutor(start, forkLogUpdate, DefaultOptions())
		for _, e := range stream {
			if err := seq.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		want, err := seq.ConcreteState()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyAll(start(), sums)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Log.Elems(), want.Log.Elems()) {
			t.Errorf("base %d: %s snapshot applies to %v, want %v", base, what, got.Log.Elems(), want.Log.Elems())
		}
	}
}

// TestVectorForkSnapshotRestore is the schedule the executor's windows
// follow, spelled out: fork after k pushes, diverge, restore one side
// from a snapshot taken before it diverged, push again.
func TestVectorForkSnapshotRestore(t *testing.T) {
	for k := 0; k < 20; k++ {
		var a, b, snap SymIntVector
		var base []int64
		for i := 0; i < k; i++ {
			a.Push(int64(i))
			base = append(base, int64(i))
		}
		snap.CopyFrom(&a)
		b.CopyFrom(&a)
		a.Push(100)
		a.Push(101)
		b.Push(200)
		a.CopyFrom(&snap) // roll a back
		a.Push(300)
		b.Push(201)
		for _, c := range []struct {
			name string
			v    *SymIntVector
			tail []int64
		}{{"restored", &a, []int64{300}}, {"fork", &b, []int64{200, 201}}, {"snapshot", &snap, nil}} {
			if got, want := c.v.Elems(), append(slices.Clone(base), c.tail...); !slices.Equal(got, want) {
				t.Fatalf("k=%d %s: %v, want %v", k, c.name, got, want)
			}
		}
	}
}

// logState is a running max that logs every record to one of two
// vectors: it forks on Lt until the max settles, merges, and forks again
// when a larger value arrives — so in-place windows (feedWindow) push
// under checkpoints, roll back on mid-window forks and replay.
type logState struct {
	Max  SymInt
	Ups  SymIntVector
	Seen SymVector[int64]
}

func (s *logState) Fields() []Value { return []Value{&s.Max, &s.Ups, &s.Seen} }

func newLogState() *logState {
	return &logState{Max: NewSymInt(math.MinInt64), Seen: NewSymVector(Int64Codec())}
}

func logUpdate(ctx *Ctx, s *logState, e int64) {
	if s.Max.Lt(ctx, e) {
		s.Max.Set(e)
		s.Ups.Push(e)
	}
	s.Seen.Push(e)
}

// TestVectorPushUnderSpeculativeWindows: the batch path's in-place
// pushes must leave exactly the summaries the scalar feed's
// clone-per-record leaves, and those must apply to the sequential answer.
func TestVectorPushUnderSpeculativeWindows(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		stream := runStream(r, 100+r.Intn(300), 3+r.Intn(40), 1+r.Intn(5))
		var cuts []int
		if trial%2 == 1 {
			cuts = []int{len(stream) / 3, len(stream) / 2}
		}
		checkBatchEquiv(t, "log", newLogState, logUpdate, DefaultOptions(), stream, cuts)

		x := NewSchemaExecutor(newSchema(newLogState), logUpdate, DefaultOptions())
		if err := x.FeedBatch(stream); err != nil {
			t.Fatal(err)
		}
		sums, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyAll(newLogState(), sums)
		if err != nil {
			t.Fatal(err)
		}
		var ups []int64
		best := int64(math.MinInt64)
		for _, e := range stream {
			if best < e {
				best = e
				ups = append(ups, e)
			}
		}
		if !slices.Equal(got.Ups.Elems(), ups) || !slices.Equal(got.Seen.Elems(), stream) {
			t.Fatalf("trial %d: vectors after apply diverge from the sequential run", trial)
		}
	}
}

// TestVectorPushAllocsLogarithmic: n pushes allocate O(log n) times. The
// copy-on-every-push form this replaced allocated n times (and copied
// n²/2 elements); 4096 pushes through append's growth take under 40.
func TestVectorPushAllocsLogarithmic(t *testing.T) {
	const n, limit = 4096, 40
	if got := testing.AllocsPerRun(5, func() {
		var v SymIntVector
		for i := int64(0); i < n; i++ {
			v.Push(i)
		}
	}); got > limit {
		t.Errorf("SymIntVector: %v allocations for %d pushes, want at most %d", got, n, limit)
	}
	if got := testing.AllocsPerRun(5, func() {
		v := NewSymVector(Int64Codec())
		for i := int64(0); i < n; i++ {
			v.Push(i)
		}
	}); got > limit {
		t.Errorf("SymVector: %v allocations for %d pushes, want at most %d", got, n, limit)
	}
	// Through the executor, on the shape of R3 (every record pushes a
	// gap onto a state that went concrete at the first record, so the
	// path updates in place): doubling the stream must not double the
	// allocations.
	run := func(events int) float64 {
		stream := make([]int64, events)
		for i := range stream {
			stream[i] = int64(i) * 100
		}
		sc := newSchema(func() *gapLog { return &gapLog{Last: NewSymInt(math.MaxInt64 / 2)} })
		return testing.AllocsPerRun(3, func() {
			x := NewSchemaExecutor(sc, gapUpdate, DefaultOptions())
			if err := x.FeedBatch(stream); err != nil {
				t.Fatal(err)
			}
			if _, err := x.Finish(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := run(n), run(2*n); long-short > n/16 {
		t.Errorf("executor: %v allocations for %d events, %v for %d — pushes are not amortised",
			short, n, long, 2*n)
	}
}

// gapLog is R3's state: the last timestamp and the gaps seen so far.
type gapLog struct {
	Last SymInt
	Out  SymIntVector
}

func (s *gapLog) Fields() []Value { return []Value{&s.Last, &s.Out} }

func gapUpdate(ctx *Ctx, s *gapLog, ts int64) {
	if s.Last.Lt(ctx, ts-10) {
		s.Out.PushInt(&s.Last)
		s.Out.Push(ts)
	}
	s.Last.Set(ts)
}
