package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// indexedMax is maxQuery with a vectorized GroupBy over the plan
// {key: dictionary, value: int}, instrumented to count what each job
// pays: calls of the scalar GroupBy and of GroupByBatch, and parses done
// by an index build.
type indexedMax struct {
	q                       *Query[*maxState, int64, int64]
	scalar, batches, parses atomic.Int64
	refuse                  bool // GroupByBatch reports a shape mismatch
}

func newIndexedMax() *indexedMax {
	m := &indexedMax{q: maxQuery()}
	groupBy := m.q.GroupBy
	m.q.GroupBy = func(rec []byte) (string, int64, bool) {
		m.scalar.Add(1)
		return groupBy(rec)
	}
	m.q.Columns = (&mapreduce.ColPlan{Fields: []mapreduce.ColSpec{
		{Kind: mapreduce.ColDict},
		{Kind: mapreduce.ColInt, Parse: func(b []byte) (int64, bool) {
			m.parses.Add(1)
			v, err := strconv.ParseInt(string(b), 10, 64)
			return v, err == nil
		}},
	}}).Read(0, 1)
	m.q.GroupByBatch = func(cols *mapreduce.Columnar, b *Batch[int64]) bool {
		m.batches.Add(1)
		if m.refuse {
			return false
		}
		keys, vals := &cols.Cols[0], &cols.Cols[1]
		fillBatch(cols, b, m.q.GroupBy, func(row int) (string, int64, bool) {
			return keys.Dict[keys.Codes[row]], vals.Ints[row], true
		})
		return true
	}
	return m
}

// fillBatch is a GroupByBatch body: a row the view left ragged goes
// through groupBy, a dense one through dense, and keys intern in
// first-use order.
func fillBatch(cols *mapreduce.Columnar, b *Batch[int64], groupBy func([]byte) (string, int64, bool), dense func(row int) (string, int64, bool)) {
	b.Reset()
	idx := map[string]int32{}
	rag := 0
	for row := range cols.Records {
		var key string
		var ev int64
		var ok bool
		if rag < len(cols.Ragged) && int(cols.Ragged[rag]) == row {
			key, ev, ok = groupBy(cols.Records[row])
			rag++
		} else {
			key, ev, ok = dense(row)
		}
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
		b.Rows = append(b.Rows, int32(row))
		b.Events = append(b.Events, ev)
	}
}

// run executes the query over segs and returns the results with the
// scalar GroupBy calls, GroupByBatch calls and index parses that job
// cost.
func (m *indexedMax) run(t *testing.T, segs []*mapreduce.Segment) (map[string]int64, [3]int64) {
	t.Helper()
	m.scalar.Store(0)
	m.batches.Store(0)
	m.parses.Store(0)
	out, err := RunSymple(m.q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out.Results, [3]int64{m.scalar.Load(), m.batches.Load(), m.parses.Load()}
}

// TestSymExecChunkIndexesOncePerResidentSegment pins the one selection
// symExecChunk makes and the memo above it: the first job to touch a
// segment builds its index, the second scans the resident vectors (no
// parse, no scalar GroupBy but for ragged rows) and keeps the grouped
// form, and every later job reads that — no GroupBy, no GroupByBatch, no
// parse. Fresh segments resident under another plan, a refused shape,
// or a query with no plan group scalar. Every job answers as the
// sequential run does.
func TestSymExecChunkIndexesOncePerResidentSegment(t *testing.T) {
	lines := randMaxInput(rand.New(rand.NewSource(7)), 600, 9)
	const ragged, segments = 3, 4
	lines[10], lines[300], lines[599] = "no-value", "k1\tnot-a-number", ""
	rows := int64(len(lines))
	typed := rows - 2 // rows with a second field for the index to parse

	m := newIndexedMax()
	want, err := RunSequential(maxQuery(), makeSegments(lines, segments))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got map[string]int64, calls, wantCalls [3]int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want.Results) {
			t.Errorf("%s: results differ from sequential", name)
		}
		if calls != wantCalls {
			t.Errorf("%s: %d scalar GroupBy calls, %d GroupByBatch calls and %d index parses, want %d, %d and %d",
				name, calls[0], calls[1], calls[2], wantCalls[0], wantCalls[1], wantCalls[2])
		}
	}

	segs := makeSegments(lines, segments)
	got, calls := m.run(t, segs)
	check("first touch", got, calls, [3]int64{ragged, segments, typed})
	got, calls = m.run(t, segs)
	check("resident", got, calls, [3]int64{ragged, segments, 0})
	for _, name := range []string{"memo", "memo again"} {
		got, calls = m.run(t, segs)
		check(name, got, calls, [3]int64{})
	}

	m.refuse = true
	got, calls = m.run(t, makeSegments(lines, segments))
	check("refused shape", got, calls, [3]int64{rows, segments, typed})
	m.refuse = false

	foreign := makeSegments(lines, segments)
	for _, seg := range foreign {
		seg.Index(mapreduce.ColRead{Plan: &mapreduce.ColPlan{}}, nil)
	}
	got, calls = m.run(t, foreign)
	check("foreign plan", got, calls, [3]int64{rows, 0, 0})

	m.q.Columns = mapreduce.ColRead{}
	got, calls = m.run(t, makeSegments(lines, segments))
	check("no plan", got, calls, [3]int64{rows, 0, 0})
}

// keptForm is the grouped form seg keeps of q, or nil.
func keptForm[S sym.State, E, R any](seg *mapreduce.Segment, q *Query[S, E, R]) *grouped[E] {
	return seg.Derived(groupKey(q), newMemo[E]).(*memo[E]).g.Load()
}

// TestGroupedMemoConcurrentSecondTouch: the map tasks of concurrent
// jobs that all make a segment's second touch keep one grouped form
// between them — every later job reads it, calling neither GroupBy nor
// GroupByBatch — and every job, racing or not, answers as the
// sequential run does. Many keys, so the form is large (the -race leg's
// subject).
func TestGroupedMemoConcurrentSecondTouch(t *testing.T) {
	lines := randMaxInput(rand.New(rand.NewSource(8)), 4000, 300)
	const segments = 4
	want, err := RunSequential(maxQuery(), makeSegments(lines, segments))
	if err != nil {
		t.Fatal(err)
	}
	m := newIndexedMax()
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
	m.scalar.Store(0)
	m.batches.Store(0)
	if err := job(); err != nil {
		t.Fatalf("memo: %v", err)
	}
	if n, b := m.scalar.Load(), m.batches.Load(); n != 0 || b != 0 {
		t.Errorf("a job over kept forms made %d GroupBy and %d GroupByBatch calls", n, b)
	}
	for i, seg := range segs {
		if keptForm(seg, m.q) != kept[i] {
			t.Errorf("segment %d: a later job replaced the kept grouped form", i)
		}
	}
}

// TestIndexBuildsWhatAJobReads counts an index build per column, with a
// parse counter on each typed field of a bing-shaped plan — ts user geo
// ok — and the index spans each job's trace holds. A B1-shaped job (one
// group, the ts of rows whose ok is 1) types only ts and ok on its first
// touch; a later B3-shaped job (max ts per user) on the same segments
// builds only user; a third job builds nothing; geo is never built. A row
// whose ok reads "x" — a column B3 does not read — is dense for B3 and
// ragged for B1, and each job answers as the sequential run does.
func TestIndexBuildsWhatAJobReads(t *testing.T) {
	var parses [4]atomic.Int64 // by plan field
	counted := func(f int) func([]byte) (int64, bool) {
		return func(b []byte) (int64, bool) {
			parses[f].Add(1)
			v, err := strconv.ParseInt(string(b), 10, 64)
			return v, err == nil
		}
	}
	plan := &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{
		{Kind: mapreduce.ColInt, Parse: counted(0)}, {Kind: mapreduce.ColDict},
		{Kind: mapreduce.ColDict}, {Kind: mapreduce.ColByte, Parse: counted(3)}}}
	var scalar atomic.Int64
	query := func(byUser bool) *Query[*maxState, int64, int64] {
		q := maxQuery()
		q.GroupBy = func(rec []byte) (string, int64, bool) {
			scalar.Add(1)
			f := strings.Split(string(rec), "\t")
			if len(f) < 2 || (!byUser && (len(f) < 4 || f[3] != "1")) {
				return "", 0, false
			}
			ts, err := strconv.ParseInt(f[0], 10, 64)
			if byUser {
				return f[1], ts, err == nil
			}
			return "all", ts, err == nil
		}
		if byUser {
			q.Columns = plan.Read(0, 1)
		} else {
			q.Columns = plan.Read(0, 3)
		}
		q.GroupByBatch = func(cols *mapreduce.Columnar, b *Batch[int64]) bool {
			ts, user, ok := &cols.Cols[0], &cols.Cols[1], &cols.Cols[3]
			fillBatch(cols, b, q.GroupBy, func(row int) (string, int64, bool) {
				if byUser {
					return user.Dict[user.Codes[row]], ts.Ints[row], true
				}
				return "all", ts.Ints[row], ok.Bytes[row] == 1
			})
			return true
		}
		return q
	}
	b1, b3 := query(false), query(true)

	r := rand.New(rand.NewSource(11))
	lines := make([]string, 800)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\tu%d\tg%d\t%d\tquery", 1000+i, r.Intn(60), r.Intn(5), r.Intn(2))
	}
	lines[123] = "1123\tu7\tg1\tx\tquery"
	const segments = 4
	segs := makeSegments(lines, segments)

	job := func(name string, q *Query[*maxState, int64, int64], wantBuilt string, wantParses [4]int64, wantScalar int64) {
		t.Helper()
		want, err := RunSequential(q, makeSegments(lines, segments))
		if err != nil {
			t.Fatal(err)
		}
		for i := range parses {
			parses[i].Store(0)
		}
		scalar.Store(0)
		sink := obs.NewMemSink()
		got, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 2, Trace: obs.NewTrace(sink)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: results differ from sequential", name)
		}
		var built []string
		for _, sp := range sink.Spans() {
			if sp.Kind == obs.KindIndex {
				built = append(built, sp.Name)
			}
		}
		if wantBuilt != "" && len(built) != segments || wantBuilt == "" && len(built) != 0 {
			t.Errorf("%s: built %v, want %q on each of %d segments", name, built, wantBuilt, segments)
		}
		for _, b := range built {
			if b != wantBuilt {
				t.Errorf("%s: built fields %s, want %q", name, b, wantBuilt)
			}
		}
		for f := range parses {
			if n := parses[f].Load(); n != wantParses[f] {
				t.Errorf("%s: field %d parsed %d times, want %d", name, f, n, wantParses[f])
			}
		}
		if n := scalar.Load(); n != wantScalar {
			t.Errorf("%s: %d scalar GroupBy calls, want %d", name, n, wantScalar)
		}
		if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	rows := int64(len(lines))
	job("B1 first touch", b1, "0,3", [4]int64{rows, 0, 0, rows}, 1)
	job("B3 after B1", b3, "1", [4]int64{}, 0)
	job("B1 resident", b1, "", [4]int64{}, 1)
	job("B3 resident", b3, "", [4]int64{}, 0)
}
