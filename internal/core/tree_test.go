package core

import (
	"testing"

	"repro/internal/sym"
)

func TestComposeTreeOddCounts(t *testing.T) {
	// The tree reduction must handle odd level sizes (carry the last
	// summary).
	newState := func() *maxState { return &maxState{Max: sym.NewSymInt(0)} }
	update := func(ctx *sym.Ctx, s *maxState, e int64) {
		if s.Max.Lt(ctx, e) {
			s.Max.Set(e)
		}
	}
	for _, n := range []int{1, 2, 3, 5, 7, 8} {
		var sums []*sym.Summary[*maxState]
		for c := 0; c < n; c++ {
			x := sym.NewExecutor(newState, update, sym.DefaultOptions())
			if err := x.Feed(int64(c * 10)); err != nil {
				t.Fatal(err)
			}
			s, err := x.Finish()
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, s...)
		}
		composed, err := sym.ComposeAll(sums)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := composed.Apply(newState())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.Max.Get(), int64((n-1)*10); got != want {
			t.Fatalf("n=%d: max %d, want %d", n, got, want)
		}
	}
	if _, err := sym.ComposeAll[*maxState](nil); err == nil {
		t.Fatal("expected error for zero summaries")
	}
}
