package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce"
)

// indexedMax is maxQuery with a vectorized GroupBy over the plan
// {key: dictionary, value: int}, instrumented to count what each job
// pays: calls of the scalar GroupBy and parses done by an index build.
type indexedMax struct {
	q              *Query[*maxState, int64, int64]
	scalar, parses atomic.Int64
	refuse         bool // GroupByBatch reports a shape mismatch
}

func newIndexedMax() *indexedMax {
	m := &indexedMax{q: maxQuery()}
	groupBy := m.q.GroupBy
	m.q.GroupBy = func(rec []byte) (string, int64, bool) {
		m.scalar.Add(1)
		return groupBy(rec)
	}
	m.q.Columns = &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{
		{Kind: mapreduce.ColDict},
		{Kind: mapreduce.ColInt, Parse: func(b []byte) (int64, bool) {
			m.parses.Add(1)
			v, err := strconv.ParseInt(string(b), 10, 64)
			return v, err == nil
		}},
	}}
	m.q.GroupByBatch = func(cols *mapreduce.Columnar, b *Batch[int64]) bool {
		if m.refuse {
			return false
		}
		b.Reset()
		idx := map[string]int32{}
		keys, vals := &cols.Cols[0], &cols.Cols[1]
		rag := 0
		for row := 0; row < cols.Rows; row++ {
			var key string
			var ev int64
			if rag < len(cols.Ragged) && int(cols.Ragged[rag]) == row {
				var ok bool
				key, ev, ok = m.q.GroupBy(cols.RaggedRecs[rag])
				rag++
				if !ok {
					continue
				}
			} else {
				key, ev = keys.Dict[keys.Codes[row-rag]], vals.Ints[row-rag]
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
		return true
	}
	return m
}

// run executes the query over segs and returns the results with the
// scalar GroupBy calls and index parses that job cost.
func (m *indexedMax) run(t *testing.T, segs []*mapreduce.Segment) (map[string]int64, int64, int64) {
	t.Helper()
	m.scalar.Store(0)
	m.parses.Store(0)
	out, err := RunSymple(m.q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return out.Results, m.scalar.Load(), m.parses.Load()
}

// TestSymExecChunkIndexesOncePerResidentSegment pins the one selection
// symExecChunk makes: the first job to touch a segment builds its index,
// every later job scans the resident vectors (no parse, no scalar
// GroupBy but for ragged rows), and a segment resident under another
// plan, a refused shape, or a query with no plan group scalar — all with
// the sequential answer.
func TestSymExecChunkIndexesOncePerResidentSegment(t *testing.T) {
	lines := randMaxInput(rand.New(rand.NewSource(7)), 600, 9)
	const ragged = 3
	lines[10], lines[300], lines[599] = "no-value", "k1\tnot-a-number", ""
	rows := int64(len(lines))
	typed := rows - 2 // rows with a second field for the index to parse

	m := newIndexedMax()
	want, err := RunSequential(maxQuery(), makeSegments(lines, 4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got map[string]int64, scalar, parses, wantScalar, wantParses int64) {
		t.Helper()
		if !reflect.DeepEqual(got, want.Results) {
			t.Errorf("%s: results differ from sequential", name)
		}
		if scalar != wantScalar || parses != wantParses {
			t.Errorf("%s: %d scalar GroupBy calls and %d index parses, want %d and %d",
				name, scalar, parses, wantScalar, wantParses)
		}
	}

	segs := makeSegments(lines, 4)
	got, scalar, parses := m.run(t, segs)
	check("first touch", got, scalar, parses, ragged, typed)
	got, scalar, parses = m.run(t, segs)
	check("resident", got, scalar, parses, ragged, 0)

	m.refuse = true
	got, scalar, parses = m.run(t, segs)
	check("refused shape", got, scalar, parses, rows, 0)
	m.refuse = false

	foreign := makeSegments(lines, 4)
	for _, seg := range foreign {
		seg.Index(&mapreduce.ColPlan{})
	}
	got, scalar, parses = m.run(t, foreign)
	check("foreign plan", got, scalar, parses, rows, 0)

	m.q.Columns = nil
	got, scalar, parses = m.run(t, makeSegments(lines, 4))
	check("no plan", got, scalar, parses, rows, 0)
}
