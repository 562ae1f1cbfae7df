package sym

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// partialSummary returns chunk's Max summary with every path admitting
// the concrete value v removed: applying it to a state holding v must
// fail with ErrNoPath.
func partialSummary(t *testing.T, chunk []int64, v int64) *Summary[*intState] {
	t.Helper()
	sums := maxChunkSummaries(t, chunk)
	if len(sums) != 1 {
		t.Fatalf("%d summaries for one short chunk", len(sums))
	}
	s := sums[0]
	at := wrapState(&intState{V: NewSymInt(v)})
	kept := s.ps[:0]
	for _, p := range s.ps {
		if !admitsFields(p.fs, at.fs) {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 || len(kept) == s.NumPaths() {
		t.Fatalf("chunk %v: no path to drop for state %d", chunk, v)
	}
	s.ps = kept
	return s
}

// TestFoldAddFailureLeavesPrefix: a bundle whose k-th summary fails to
// apply returns the error and leaves State() equal to the pre-Add
// prefix, and the fold stays usable.
func TestFoldAddFailureLeavesPrefix(t *testing.T) {
	f := NewFold(newSchema(newIntState(math.MinInt64)))
	if err := f.Add(maxChunkSummaries(t, []int64{2, 1})); err != nil {
		t.Fatal(err)
	}
	if got := f.State().V.Get(); got != 2 {
		t.Fatalf("prefix = %d, want 2", got)
	}
	// 9 then 3 apply; the third summary has no path for the state 9.
	bundle := append(maxChunkSummaries(t, []int64{9}), maxChunkSummaries(t, []int64{3})...)
	bundle = append(bundle, partialSummary(t, []int64{5}, 9))
	err := f.Add(bundle)
	if !errors.Is(err, ErrNoPath) || !strings.Contains(err.Error(), "3/3") {
		t.Fatalf("Add error = %v, want ErrNoPath naming summary 3/3", err)
	}
	if got := f.State().V.Get(); got != 2 {
		t.Fatalf("failed Add moved the prefix to %d, want 2", got)
	}
	if err := f.Add(maxChunkSummaries(t, []int64{7})); err != nil {
		t.Fatal(err)
	}
	if got := f.State().V.Get(); got != 7 {
		t.Fatalf("prefix after recovery = %d, want 7", got)
	}
}

// TestFoldAddBundle: the bundle form decodes and folds in one call,
// counts what it folded, and rejects a corrupt bundle before applying
// anything.
func TestFoldAddBundle(t *testing.T) {
	sc := newSchema(newIntState(math.MinInt64))
	f := NewFold(sc)
	sums := append(maxChunkSummaries(t, []int64{4, 8}), maxChunkSummaries(t, []int64{6})...)
	data := sc.EncodeSummaryBundle(sums)
	n, err := f.AddBundle(data)
	if err != nil || n != 2 {
		t.Fatalf("AddBundle = %d, %v; want 2 summaries", n, err)
	}
	if got := f.State().V.Get(); got != 8 {
		t.Fatalf("state = %d, want 8", got)
	}
	if _, err := f.AddBundle(data[:len(data)-1]); err == nil {
		t.Fatal("truncated bundle accepted")
	}
	if got := f.State().V.Get(); got != 8 {
		t.Fatalf("corrupt bundle moved the state to %d", got)
	}
}

// TestApplyAllBorrows: the non-consuming convenience leaves both the
// start state and the summaries intact, so a list can be applied twice.
func TestApplyAllBorrows(t *testing.T) {
	sums := append(maxChunkSummaries(t, []int64{4, 8}), maxChunkSummaries(t, []int64{6})...)
	start := newIntState(5)()
	for round := 0; round < 2; round++ {
		out, err := ApplyAll(start, sums)
		if err != nil {
			t.Fatal(err)
		}
		if out.V.Get() != 8 || start.V.Get() != 5 {
			t.Fatalf("round %d: out %d (want 8), start %d (want 5)", round, out.V.Get(), start.V.Get())
		}
	}
}
