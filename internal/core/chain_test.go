package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sym"
	"repro/internal/wire"
)

// countState counts records per group — stage 2 of the chained plan.
type countState struct {
	N sym.SymInt
}

func (s *countState) Fields() []sym.Value { return []sym.Value{&s.N} }

func countQuery() *Query[*countState, struct{}, int64] {
	return &Query[*countState, struct{}, int64]{
		Name: "count",
		GroupBy: func(rec []byte) ([]byte, struct{}, bool) {
			return rec, struct{}{}, true
		},
		NewState:    func() *countState { return &countState{N: sym.NewSymInt(0)} },
		Update:      func(_ *sym.Ctx, s *countState, _ struct{}) { s.N.Inc() },
		Result:      func(_ string, s *countState) int64 { return s.N.Get() },
		EncodeEvent: func(*wire.Encoder, struct{}) {},
		DecodeEvent: func(d *wire.Decoder) (struct{}, error) { return struct{}{}, d.Err() },
	}
}

// TestTwoStagePlan chains session extraction (stage 1, the order-
// sensitive SymPred UDA) into a session-length histogram (stage 2),
// both stages under symbolic parallelism, and checks the end-to-end
// result against running both stages sequentially.
func TestTwoStagePlan(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	lines := make([]string, 600)
	ts := map[string]int64{}
	for i := range lines {
		k := fmt.Sprintf("u%d", r.Intn(10))
		ts[k] += int64(r.Intn(180))
		lines[i] = fmt.Sprintf("%s\t%d", k, ts[k])
	}
	input := makeSegments(lines, 6)

	runPlan := func(symbolic bool) (map[string]int64, error) {
		s1 := sessionQuery()
		var out1 *Output[[]int64]
		var err error
		if symbolic {
			out1, err = RunSymple(s1, input, mapreduce.Config{NumReducers: 3})
		} else {
			out1, err = RunSequential(s1, input)
		}
		if err != nil {
			return nil, err
		}
		// Stage boundary: one record per session, keyed by its length.
		mid := ResultSegments(out1, func(_ string, sessions []int64) [][]byte {
			var recs [][]byte
			for _, l := range sessions {
				recs = append(recs, []byte(fmt.Sprintf("len%d", l)))
			}
			return recs
		}, 4)
		s2 := countQuery()
		var out2 *Output[int64]
		if symbolic {
			out2, err = RunSymple(s2, mid, mapreduce.Config{NumReducers: 2})
		} else {
			out2, err = RunSequential(s2, mid)
		}
		if err != nil {
			return nil, err
		}
		return out2.Results, nil
	}

	want, err := runPlan(false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPlan(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty histogram")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("two-stage plans differ:\nsequential: %v\nsymbolic:   %v", want, got)
	}
}

func TestResultSegmentsShape(t *testing.T) {
	out := &Output[int64]{Results: map[string]int64{"b": 2, "a": 1, "c": 3}}
	segs := ResultSegments(out, func(key string, v int64) [][]byte {
		return [][]byte{[]byte(fmt.Sprintf("%s=%d", key, v))}
	}, 2)
	if len(segs) != 2 {
		t.Fatalf("%d segments", len(segs))
	}
	var all []string
	for _, s := range segs {
		for _, r := range s.Records {
			all = append(all, string(r))
		}
	}
	// Sorted key order.
	want := []string{"a=1", "b=2", "c=3"}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("records %v, want %v", all, want)
	}

	// Empty output yields empty segments without panicking.
	empty := ResultSegments(&Output[int64]{Results: map[string]int64{}},
		func(string, int64) [][]byte { return nil }, 3)
	if len(empty) != 3 {
		t.Fatal("segment count wrong for empty output")
	}
}
