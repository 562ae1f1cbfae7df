package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sym"
	"repro/internal/wire"
)

// ---- Test query 1: max value per key (paper §3.1) ----

type maxState struct {
	Max sym.SymInt
}

func (s *maxState) Fields() []sym.Value { return []sym.Value{&s.Max} }

func maxQuery() *Query[*maxState, int64, int64] {
	return &Query[*maxState, int64, int64]{
		Name: "max",
		GroupBy: func(rec []byte) (string, int64, bool) {
			parts := strings.SplitN(string(rec), "\t", 2)
			if len(parts) != 2 {
				return "", 0, false
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return "", 0, false
			}
			return parts[0], v, true
		},
		NewState: func() *maxState { return &maxState{Max: sym.NewSymInt(math.MinInt64)} },
		Update: func(ctx *sym.Ctx, s *maxState, e int64) {
			if s.Max.Lt(ctx, e) {
				s.Max.Set(e)
			}
		},
		Result:      func(_ string, s *maxState) int64 { return s.Max.Get() },
		EncodeEvent: func(e *wire.Encoder, v int64) { e.Varint(v) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
}

// ---- Test query 2: session counts with a SymPred (paper §4.4) ----

type sessState struct {
	Prev   sym.SymPred[int64]
	Count  sym.SymInt
	Counts sym.SymIntVector
}

func (s *sessState) Fields() []sym.Value {
	return []sym.Value{&s.Prev, &s.Count, &s.Counts}
}

func gap(prev, cur int64) bool { return cur-prev < 100 }

func sessionQuery() *Query[*sessState, int64, []int64] {
	return &Query[*sessState, int64, []int64]{
		Name: "sessions",
		GroupBy: func(rec []byte) (string, int64, bool) {
			parts := strings.SplitN(string(rec), "\t", 2)
			if len(parts) != 2 {
				return "", 0, false
			}
			v, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				return "", 0, false
			}
			return parts[0], v, true
		},
		NewState: func() *sessState {
			return &sessState{
				Prev:  sym.NewSymPred(gap, sym.Int64Codec(), math.MinInt64/2),
				Count: sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *sessState, ts int64) {
			if s.Prev.EvalPred(ctx, ts) {
				s.Count.Inc()
			} else {
				s.Counts.PushInt(&s.Count)
				s.Count.Set(1)
			}
			s.Prev.SetValue(ts)
		},
		Result: func(_ string, s *sessState) []int64 {
			out := append([]int64(nil), s.Counts.Elems()...)
			return append(out, s.Count.Get())
		},
		EncodeEvent: func(e *wire.Encoder, v int64) { e.Varint(v) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
}

// makeSegments builds tab-separated key\tvalue records spread over
// numSegments ordered segments.
func makeSegments(lines []string, numSegments int) []*mapreduce.Segment {
	segs := make([]*mapreduce.Segment, numSegments)
	for i := range segs {
		segs[i] = &mapreduce.Segment{ID: i}
	}
	for i, l := range lines {
		s := segs[i*numSegments/len(lines)]
		s.Records = append(s.Records, []byte(l))
	}
	return segs
}

func randMaxInput(r *rand.Rand, n, keys int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("k%d\t%d", r.Intn(keys), r.Intn(10000)-5000)
	}
	return lines
}

// TestEnginesAgreeMax: the three engines must produce identical results.
func TestEnginesAgreeMax(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	q := maxQuery()
	for _, numSegs := range []int{1, 2, 4, 9} {
		lines := randMaxInput(r, 500, 7)
		segs := makeSegments(lines, numSegs)
		seq, err := RunSequential(q, segs)
		if err != nil {
			t.Fatal(err)
		}
		base, err := RunBaseline(q, segs, mapreduce.Config{NumReducers: 3})
		if err != nil {
			t.Fatal(err)
		}
		symp, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Results, base.Results) {
			t.Fatalf("segs=%d: baseline differs from sequential", numSegs)
		}
		if !reflect.DeepEqual(seq.Results, symp.Results) {
			t.Fatalf("segs=%d: symple differs from sequential\nseq:  %v\nsymp: %v",
				numSegs, seq.Results, symp.Results)
		}
	}
}

// TestEnginesAgreeSessions: order-sensitive UDA with SymPred and a
// symbolic vector across many chunkings.
func TestEnginesAgreeSessions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	q := sessionQuery()
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(200)
		lines := make([]string, n)
		ts := make(map[string]int64)
		for i := range lines {
			k := fmt.Sprintf("u%d", r.Intn(4))
			ts[k] += int64(r.Intn(200)) // sometimes within session, sometimes not
			lines[i] = fmt.Sprintf("%s\t%d", k, ts[k])
		}
		segs := makeSegments(lines, 1+r.Intn(6))
		seq, err := RunSequential(q, segs)
		if err != nil {
			t.Fatal(err)
		}
		symp, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Results, symp.Results) {
			t.Fatalf("trial %d: symple differs\nseq:  %v\nsymp: %v",
				trial, seq.Results, symp.Results)
		}
	}
}

// TestSympleShrinksShuffle: with few groups and many records per group,
// the symbolic shuffle must be far smaller than the baseline's — the
// effect behind Figures 6 and 8.
func TestSympleShrinksShuffle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	q := maxQuery()
	lines := randMaxInput(r, 20000, 3)
	segs := makeSegments(lines, 8)
	base, err := RunBaseline(q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	symp, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if symp.Metrics.ShuffleBytes*50 > base.Metrics.ShuffleBytes {
		t.Fatalf("shuffle reduction too small: baseline %d, symple %d",
			base.Metrics.ShuffleBytes, symp.Metrics.ShuffleBytes)
	}
	if symp.Metrics.ShuffleRecords != 8*3 {
		t.Fatalf("symple shuffled %d records, want one per (mapper, group) = 24",
			symp.Metrics.ShuffleRecords)
	}
}

// TestSympleSingleGroup reproduces the B1 regime: one group, so groupby
// parallelism is zero and symbolic parallelism is the only parallelism.
func TestSympleSingleGroup(t *testing.T) {
	q := maxQuery()
	var lines []string
	for i := 0; i < 5000; i++ {
		lines = append(lines, fmt.Sprintf("only\t%d", (i*37)%1000))
	}
	segs := makeSegments(lines, 10)
	seq, err := RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	symp, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, symp.Results) {
		t.Fatal("single-group results differ")
	}
	if symp.Metrics.ShuffleRecords != 10 {
		t.Fatalf("shuffled %d records, want 10 (one summary bundle per mapper)",
			symp.Metrics.ShuffleRecords)
	}
	if symp.Sym.Summaries < 10 {
		t.Fatalf("summaries = %d", symp.Sym.Summaries)
	}
}

// TestSympleWithRestarts forces the live-path cap to trigger mid-chunk
// and checks results still match (graceful degradation, paper §5.2).
func TestSympleWithRestarts(t *testing.T) {
	q := maxQuery()
	q.Options = sym.Options{MaxLivePaths: 1, DisableMerging: true, MaxRunsPerRecord: 64}
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("k%d\t%d", i%3, i))
	}
	segs := makeSegments(lines, 4)
	seq, err := RunSequential(maxQuery(), segs)
	if err != nil {
		t.Fatal(err)
	}
	symp, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, symp.Results) {
		t.Fatal("results differ under forced restarts")
	}
	if symp.Sym.Restarts == 0 {
		t.Fatal("expected restarts with MaxLivePaths=1")
	}
}

// TestFilteredRecordsDropped: GroupBy ok=false must drop records in all
// engines identically.
func TestFilteredRecordsDropped(t *testing.T) {
	q := maxQuery()
	lines := []string{"a\t5", "garbage", "a\t9", "b\tnotanumber", "b\t2"}
	segs := makeSegments(lines, 2)
	seq, err := RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	symp, err := RunSymple(q, segs, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, symp.Results) {
		t.Fatal("results differ with filtered records")
	}
	if seq.Results["a"] != 9 || seq.Results["b"] != 2 {
		t.Fatalf("results: %v", seq.Results)
	}
}

func TestOutputKeysSorted(t *testing.T) {
	o := &Output[int]{Results: map[string]int{"b": 1, "a": 2, "c": 3}}
	keys := o.Keys()
	if !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Fatalf("keys: %v", keys)
	}
}

// badState omits a field from Fields; every engine must reject it
// before running (the §5.3 verification).
type badState struct {
	A sym.SymInt
	B sym.SymInt
}

func (s *badState) Fields() []sym.Value { return []sym.Value{&s.A} }

func TestEnginesRejectInvalidState(t *testing.T) {
	q := &Query[*badState, int64, int64]{
		Name:     "bad",
		GroupBy:  func([]byte) (string, int64, bool) { return "k", 0, true },
		NewState: func() *badState { return &badState{A: sym.NewSymInt(0), B: sym.NewSymInt(0)} },
		Update:   func(*sym.Ctx, *badState, int64) {},
		Result:   func(string, *badState) int64 { return 0 },
	}
	segs := makeSegments([]string{"x\t1"}, 1)
	if _, err := RunSequential(q, segs); err == nil {
		t.Error("sequential accepted invalid state")
	}
	if _, err := RunSymple(q, segs, mapreduce.Config{}); err == nil {
		t.Error("symple accepted invalid state")
	}
}

func TestEnginesRejectNilFuncs(t *testing.T) {
	q := &Query[*maxState, int64, int64]{Name: "nil"}
	if _, err := RunSequential(q, nil); err == nil {
		t.Error("accepted query with nil functions")
	}
}
