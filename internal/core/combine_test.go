package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sym"
)

// TestCombinerAgrees: the mapper-side combiner must not change any
// result, with and without memoization, across randomized chunkings.
func TestCombinerAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q := maxQuery()
	sq := sessionQuery()
	for _, numSegs := range []int{1, 3, 6} {
		lines := randMaxInput(r, 600, 5)
		segs := makeSegments(lines, numSegs)
		want, err := RunSequential(q, segs)
		if err != nil {
			t.Fatal(err)
		}
		for _, memo := range []int{0, -1} {
			restore := SetMemoSizeForTest(memo)
			got, err := RunSympleOpts(q, segs, mapreduce.Config{NumReducers: 3}, SympleOptions{Combine: true})
			restore()
			if err != nil {
				t.Fatalf("segs=%d memo=%d: %v", numSegs, memo, err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("segs=%d memo=%d: results diverge from sequential", numSegs, memo)
			}
		}
		// A SymPred/vector query exercises summaries whose composition
		// can fail, covering the fall-back-to-uncombined path too.
		slines := make([]string, 400)
		ts := int64(0)
		for i := range slines {
			ts += int64(r.Intn(200))
			slines[i] = lines[i%len(lines)][:2] + "\t" + itoa(ts)
		}
		ssegs := makeSegments(slines, numSegs)
		swant, err := RunSequential(sq, ssegs)
		if err != nil {
			t.Fatal(err)
		}
		sgot, err := RunSympleOpts(sq, ssegs, mapreduce.Config{NumReducers: 2}, SympleOptions{Combine: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sgot.Results, swant.Results) {
			t.Errorf("segs=%d: session results diverge with combiner", numSegs)
		}
	}
}

// TestCombinerShrinksShuffle: when mappers restart and ship multi-summary
// bundles, the combiner should reduce shuffled summaries and bytes.
func TestCombinerShrinksShuffle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	q := maxQuery()
	// Forced restarts make uncombined bundles carry many summaries per
	// group, giving the combiner something to compose.
	q.Options = sym.Options{MaxLivePaths: 1, DisableMerging: true, MaxRunsPerRecord: 64}
	lines := randMaxInput(r, 2000, 2)
	segs := makeSegments(lines, 4)
	plain, err := RunSymple(q, segs, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := RunSympleOpts(q, segs, mapreduce.Config{}, SympleOptions{Combine: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Results, combined.Results) {
		t.Fatal("combiner changed results")
	}
	if plain.Sym.Summaries <= combined.Sym.Summaries {
		t.Errorf("summaries shuffled: plain %d, combined %d — combiner did not combine",
			plain.Sym.Summaries, combined.Sym.Summaries)
	}
	if plain.Metrics.ShuffleBytes <= combined.Metrics.ShuffleBytes {
		t.Errorf("shuffle bytes: plain %d, combined %d — combiner did not shrink the shuffle",
			plain.Metrics.ShuffleBytes, combined.Metrics.ShuffleBytes)
	}
}
