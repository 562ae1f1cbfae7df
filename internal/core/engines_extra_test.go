package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
)

// TestSympleDeterministicAcrossParallelism: results must not depend on
// scheduling (parallelism level or reducer count).
func TestSympleDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	q := maxQuery()
	lines := randMaxInput(r, 1000, 11)
	segs := makeSegments(lines, 8)
	var ref map[string]int64
	for _, conf := range []mapreduce.Config{
		{NumReducers: 1, Parallelism: 1},
		{NumReducers: 1, Parallelism: 8},
		{NumReducers: 7, Parallelism: 2},
		{NumReducers: 16, Parallelism: 16},
	} {
		out, err := RunSymple(q, segs, conf)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out.Results
			continue
		}
		if !reflect.DeepEqual(ref, out.Results) {
			t.Fatalf("results depend on config %+v", conf)
		}
	}
}

// TestSequentialMetrics sanity-checks the synthetic metrics the
// sequential engine reports.
func TestSequentialMetrics(t *testing.T) {
	q := maxQuery()
	segs := makeSegments([]string{"a\t1", "a\t2", "b\t3"}, 2)
	out, err := RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	m := out.Metrics
	if m.InputRecords != 3 || m.Groups != 2 || m.InputBytes == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.ShuffleBytes != 0 {
		t.Fatal("sequential engine has no shuffle")
	}
}
