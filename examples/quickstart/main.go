// Quickstart: the paper's §3.1 running example — Max written as an
// imperative UDA with a loop-carried dependence, parallelized by
// symbolic execution.
//
// Three chunks of a list are processed independently: the first
// concretely, the rest symbolically from an unknown state x. Their
// symbolic summaries compose, in order, to exactly the sequential
// maximum. Run it:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/symple"
)

// MaxState is the aggregation state: one symbolic integer.
type MaxState struct {
	Max symple.SymInt
}

// Fields enumerates the symbolic fields (the paper's list_fields).
func (s *MaxState) Fields() []symple.Value { return []symple.Value{&s.Max} }

func newMaxState() *MaxState {
	return &MaxState{Max: symple.NewSymInt(math.MinInt64)}
}

// update is the UDA body: if (max < e) max = e.
func update(ctx *symple.Ctx, s *MaxState, e int64) {
	if s.Max.Lt(ctx, e) {
		s.Max.Set(e)
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example: it writes its report to w.
func run(w io.Writer) error {
	// The paper's input, split into the paper's three chunks.
	chunks := [][]int64{
		{2, 9, 1},
		{5, 3, 10},
		{8, 2, 1},
	}

	// Each chunk is processed independently — in a real deployment, by a
	// different mapper — starting from an unknown symbolic state.
	var summaries []*symple.Summary[*MaxState]
	for i, chunk := range chunks {
		x := symple.NewExecutor(newMaxState, update, symple.DefaultOptions())
		for _, e := range chunk {
			if err := x.Feed(e); err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
		fmt.Fprintf(w, "chunk %d %v summarizes to:\n%s", i+1, chunk, sums[0])
		summaries = append(summaries, sums...)
	}

	// A reducer composes the summaries in input order onto the initial
	// aggregation state.
	final, err := symple.ApplyAll(newMaxState(), summaries)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ncomposed maximum: %d\n", final.Max.Get())

	// Composition is associative (§3.6): pre-composing all summaries
	// into one — as a parallel tree reduction would — gives the same
	// answer.
	one, err := symple.ComposeAll(summaries)
	if err != nil {
		return err
	}
	treeFinal, err := one.Apply(newMaxState())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tree-composed maximum: %d (summary has %d paths)\n",
		treeFinal.Max.Get(), one.NumPaths())
	return nil
}
