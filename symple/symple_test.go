package symple_test

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"repro/internal/wire"
	"repro/symple"
)

// These tests exercise the library exactly as a downstream user would:
// through the public facade only.

type maxState struct {
	Max symple.SymInt
}

func (s *maxState) Fields() []symple.Value { return []symple.Value{&s.Max} }

func newMaxState() *maxState {
	return &maxState{Max: symple.NewSymInt(math.MinInt64)}
}

func maxUpdate(ctx *symple.Ctx, s *maxState, e int64) {
	if s.Max.Lt(ctx, e) {
		s.Max.Set(e)
	}
}

func TestFacadeExecutorRoundTrip(t *testing.T) {
	chunks := [][]int64{{2, 9, 1}, {5, 3, 10}, {8, 2, 1}}
	var sums []*symple.Summary[*maxState]
	for _, chunk := range chunks {
		x := symple.NewExecutor(newMaxState, maxUpdate, symple.DefaultOptions())
		for _, e := range chunk {
			if err := x.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		s, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s...)
	}
	final, err := symple.ApplyAll(newMaxState(), sums)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Max.Get(); got != 10 {
		t.Fatalf("max = %d, want 10", got)
	}
	one, err := symple.ComposeAll(sums)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := one.Apply(newMaxState())
	if err != nil {
		t.Fatal(err)
	}
	if got := tf.Max.Get(); got != 10 {
		t.Fatalf("composed max = %d, want 10", got)
	}
}

func TestFacadeQueryEngines(t *testing.T) {
	q := &symple.Query[*maxState, int64, int64]{
		Name: "max",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			key, raw, ok := bytes.Cut(rec, []byte("\t"))
			v, err := strconv.ParseInt(string(raw), 10, 64)
			return key, v, ok && err == nil
		},
		NewState:    newMaxState,
		Update:      maxUpdate,
		Result:      func(_ string, s *maxState) int64 { return s.Max.Get() },
		EncodeEvent: func(e *wire.Encoder, v int64) { e.Varint(v) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	segs := []*symple.Segment{
		{ID: 0, Records: [][]byte{[]byte("a\t5"), []byte("b\t100")}},
		{ID: 1, Records: [][]byte{[]byte("a\t42"), []byte("b\t7")}},
	}
	seq, err := symple.RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := symple.RunBaseline(q, segs, symple.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	symp, err := symple.RunSymple(q, segs, symple.Config{NumReducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*symple.Output[int64]{seq, base, symp} {
		if out.Results["a"] != 42 || out.Results["b"] != 100 {
			t.Fatalf("results: %v", out.Results)
		}
		if got := out.Keys(); len(got) != 2 || got[0] != "a" {
			t.Fatalf("keys: %v", got)
		}
	}
}

func TestFacadeTypes(t *testing.T) {
	// Construct every public symbolic type through the facade.
	b := symple.NewSymBool(true)
	if !b.Get() {
		t.Error("bool")
	}
	en := symple.NewSymEnum(8, 3)
	if en.Get() != 3 {
		t.Error("enum")
	}
	p := symple.NewSymPred(func(a, b int64) bool { return a < b }, symple.Int64Codec(), 1)
	var ctx symple.Ctx
	if !p.EvalPred(&ctx, 2) {
		t.Error("pred")
	}
	v := symple.NewSymVector(symple.StringCodec())
	v.Push("x")
	if v.Len() != 1 {
		t.Error("vector")
	}
	iv := symple.NewSymIntVector()
	iv.Push(7)
	if got := iv.Elems(); len(got) != 1 || got[0] != 7 {
		t.Error("intvector")
	}
}

func TestFacadeReadSegments(t *testing.T) {
	dir := t.TempDir()
	if _, err := symple.ReadSegments(dir); err == nil {
		t.Error("expected error on empty dir")
	}
}

func TestFacadeStreamComposer(t *testing.T) {
	c := symple.NewStreamComposer(newMaxState)
	mkSums := func(vals ...int64) []*symple.Summary[*maxState] {
		x := symple.NewExecutor(newMaxState, maxUpdate, symple.DefaultOptions())
		for _, v := range vals {
			if err := x.Feed(v); err != nil {
				t.Fatal(err)
			}
		}
		s, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := c.Add(1, mkSums(50)); err != nil {
		t.Fatal(err)
	}
	if _, n := c.Prefix(); n != 0 {
		t.Fatal("gap should block the prefix")
	}
	if _, err := c.Add(0, mkSums(10, 99)); err != nil {
		t.Fatal(err)
	}
	state, n := c.Prefix()
	if n != 2 || state.Max.Get() != 99 {
		t.Fatalf("prefix %d, max %d", n, state.Max.Get())
	}
	if !c.Done(2) {
		t.Fatal("not done")
	}
}

func TestFacadeResultSegments(t *testing.T) {
	out := &symple.Output[int64]{Results: map[string]int64{"a": 3}}
	segs := symple.ResultSegments(out, func(key string, v int64) [][]byte {
		return [][]byte{[]byte(key)}
	}, 2)
	if len(segs) != 2 || len(segs[0].Records)+len(segs[1].Records) != 1 {
		t.Fatalf("segments: %v", segs)
	}
}
