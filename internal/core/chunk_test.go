package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sym"
)

// countedMax is maxQuery with its GroupBy calls counted: what pass one
// costs each job.
type countedMax struct {
	q     *Query[*maxState, int64, int64]
	calls atomic.Int64
}

func newCountedMax() *countedMax {
	m := &countedMax{q: maxQuery()}
	groupBy := m.q.GroupBy
	m.q.GroupBy = func(rec []byte) ([]byte, int64, bool) {
		m.calls.Add(1)
		return groupBy(rec)
	}
	return m
}

// run executes the query over segs and returns the results with the
// GroupBy calls that job made.
func (m *countedMax) run(t *testing.T, segs []*mapreduce.Segment) (map[string]int64, int64) {
	t.Helper()
	m.calls.Store(0)
	out, err := RunSymple(m.q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out.Results, m.calls.Load()
}

// TestSymExecChunkGroupsTwicePerResidentSegment pins the memo above pass
// one: the first two jobs to touch a segment call GroupBy on each of its
// rows — the second keeps the grouped form — and every later job reads
// that and calls it on none. Fresh segments over the same rows start
// over. Malformed rows — no value, a value that does not parse, an empty
// line, a row of another shape — are dropped alike on every path, and
// every job answers as the sequential run does.
func TestSymExecChunkGroupsTwicePerResidentSegment(t *testing.T) {
	lines := randMaxInput(rand.New(rand.NewSource(7)), 600, 9)
	const segments = 4
	lines[10], lines[300], lines[599] = "no-value", "k1\tnot-a-number", ""
	lines[450] = "1123\tu7\tg1\tx\tquery"
	rows := int64(len(lines))

	m := newCountedMax()
	want, err := RunSequential(maxQuery(), makeSegments(lines, segments))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got map[string]int64, calls, wantCalls int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want.Results) {
			t.Errorf("%s: results differ from sequential", name)
		}
		if calls != wantCalls {
			t.Errorf("%s: %d GroupBy calls, want %d", name, calls, wantCalls)
		}
	}

	segs := makeSegments(lines, segments)
	for _, touch := range []struct {
		name  string
		calls int64
	}{{"first touch", rows}, {"second touch", rows}, {"kept form", 0}, {"kept form again", 0}} {
		got, calls := m.run(t, segs)
		check(touch.name, got, calls, touch.calls)
	}
	got, calls := m.run(t, makeSegments(lines, segments))
	check("fresh segments", got, calls, rows)
}

// keptForm is the grouped form seg keeps of q, or nil.
func keptForm[S sym.State, E, R any](seg *mapreduce.Segment, q *Query[S, E, R]) *grouped[E] {
	return seg.Derived(groupKey(q), newMemo[E]).(*memo[E]).g.Load()
}

// TestGroupedMemoConcurrentSecondTouch: the map tasks of concurrent
// jobs that all make a segment's second touch keep one grouped form
// between them — every later job reads it, calling no GroupBy — and
// every job, racing or not, answers as the
// sequential run does. Many keys, so the form is large (the -race leg's
// subject).
func TestGroupedMemoConcurrentSecondTouch(t *testing.T) {
	lines := randMaxInput(rand.New(rand.NewSource(8)), 4000, 300)
	const segments = 4
	want, err := RunSequential(maxQuery(), makeSegments(lines, segments))
	if err != nil {
		t.Fatal(err)
	}
	m := newCountedMax()
	c, err := Compile(m.q)
	if err != nil {
		t.Fatal(err)
	}
	segs := makeSegments(lines, segments)
	job := func() error {
		results := map[string]int64{}
		var mu sync.Mutex
		_, err := c.Run(segs, mapreduce.Config{NumReducers: 2, Parallelism: segments}, func(_, _ int, key string, r int64) {
			mu.Lock()
			results[key] = r
			mu.Unlock()
		})
		if err == nil && !reflect.DeepEqual(results, want.Results) {
			err = fmt.Errorf("results differ from sequential")
		}
		return err
	}
	if err := job(); err != nil {
		t.Fatalf("first touch: %v", err)
	}
	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := job(); err != nil {
				t.Errorf("concurrent second touch %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	kept := make([]*grouped[int64], segments)
	for i, seg := range segs {
		if kept[i] = keptForm(seg, m.q); kept[i] == nil {
			t.Fatalf("segment %d keeps no grouped form after its second touch", i)
		}
	}
	m.calls.Store(0)
	if err := job(); err != nil {
		t.Fatalf("memo: %v", err)
	}
	if n := m.calls.Load(); n != 0 {
		t.Errorf("a job over kept forms made %d GroupBy calls", n)
	}
	for i, seg := range segs {
		if keptForm(seg, m.q) != kept[i] {
			t.Errorf("segment %d: a later job replaced the kept grouped form", i)
		}
	}
}

// TestGroupedMemoOwnsItsKeys: the chunk that keeps a segment's grouped
// form built it with keys viewing the records, and the kept form copies
// them. After every byte of a heap-backed segment's records is
// overwritten in place, the kept forms' keys read as before, and a third
// job, which reads the forms and calls no GroupBy, answers as the second
// did.
func TestGroupedMemoOwnsItsKeys(t *testing.T) {
	segs := makeSegments(randMaxInput(rand.New(rand.NewSource(9)), 2000, 150), 2)
	q := maxQuery()
	var second *Output[int64]
	for range 2 {
		var err error
		if second, err = RunSymple(q, segs, mapreduce.Config{NumReducers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([][]string, len(segs))
	for i, seg := range segs {
		g := keptForm(seg, q)
		if g == nil {
			t.Fatalf("segment %d keeps no grouped form after two jobs", i)
		}
		for _, k := range g.keys {
			keys[i] = append(keys[i], strings.Clone(k))
		}
		for _, rec := range seg.Records {
			for j := range rec {
				rec[j] = '#'
			}
		}
	}
	third, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if got := keptForm(seg, q).keys; !slices.Equal(got, keys[i]) {
			t.Errorf("segment %d: the kept form's keys changed with its records: %q…, were %q…", i, got[:3], keys[i][:3])
		}
	}
	if !reflect.DeepEqual(third.Results, second.Results) {
		t.Errorf("a job over the kept forms answered %d groups unlike the job before the records were overwritten (%d)",
			len(third.Results), len(second.Results))
	}
}
