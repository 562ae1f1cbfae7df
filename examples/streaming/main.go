// Streaming: incremental summary consumption (the interactive-querying
// direction of the paper's conclusion, §8).
//
// Mappers finish at different times. Because symbolic summaries compose
// associatively and each chunk's summary is self-contained, a consumer
// does not need a barrier: it can fold summaries the moment they arrive
// — out of order — maintaining an exact result over the contiguous
// prefix and a speculative result over everything received. The answer
// tightens as chunks land and is exact when the last one does.
//
// Run it:
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"repro/symple"
)

// OutageState is the B1-style UDA: windows > 2 minutes with no
// successful request.
type OutageState struct {
	LastOk symple.SymInt
	Count  symple.SymInt
}

// Fields implements symple.State.
func (s *OutageState) Fields() []symple.Value {
	return []symple.Value{&s.LastOk, &s.Count}
}

func newOutageState() *OutageState {
	return &OutageState{
		LastOk: symple.NewSymInt(math.MaxInt64 / 2),
		Count:  symple.NewSymInt(0),
	}
}

func update(ctx *symple.Ctx, s *OutageState, ts int64) {
	if s.LastOk.Lt(ctx, ts-120) {
		s.Count.Inc()
	}
	s.LastOk.Set(ts)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example: it writes its report to w.
func run(w io.Writer) error {
	r := rand.New(rand.NewSource(17))

	// A day of request timestamps with occasional outage gaps, split
	// into 12 chunks ("mappers").
	const chunks = 12
	var all []int64
	ts := int64(1_700_000_000)
	for i := 0; i < 60000; i++ {
		if r.Intn(4000) == 0 {
			ts += 121 + r.Int63n(900)
		} else {
			ts += int64(r.Intn(3))
		}
		all = append(all, ts)
	}

	// Summarize each chunk independently.
	summaries := make([][]*symple.Summary[*OutageState], chunks)
	for c := 0; c < chunks; c++ {
		x := symple.NewExecutor(newOutageState, update, symple.DefaultOptions())
		lo, hi := c*len(all)/chunks, (c+1)*len(all)/chunks
		for _, e := range all[lo:hi] {
			if err := x.Feed(e); err != nil {
				return err
			}
		}
		sums, err := x.Finish()
		if err != nil {
			return err
		}
		summaries[c] = sums
	}

	// Chunks "arrive" in a shuffled order; the composer folds greedily.
	composer := symple.NewStreamComposer(newOutageState)
	arrival := r.Perm(chunks)
	fmt.Fprintln(w, "chunk arrivals (exact prefix / speculative view):")
	for _, seq := range arrival {
		if _, err := composer.Add(seq, summaries[seq]); err != nil {
			return err
		}
		prefix, n := composer.Prefix()
		spec, err := composer.Speculate()
		if err != nil {
			return err
		}
		exact := "?"
		if n > 0 {
			exact = fmt.Sprintf("%d", prefix.Count.Get())
		}
		fmt.Fprintf(w, "  chunk %2d arrives → prefix covers %2d/%d chunks, exact=%s, speculative=%d (pending %v)\n",
			seq, n, chunks, exact, spec.Count.Get(), composer.Pending())
	}

	final, n := composer.Prefix()
	if !composer.Done(chunks) {
		return fmt.Errorf("composer not done: %d folded", n)
	}

	// Reference: sequential execution over the whole log.
	seq := symple.NewConcreteExecutor(newOutageState, update, symple.DefaultOptions())
	for _, e := range all {
		if err := seq.Feed(e); err != nil {
			return err
		}
	}
	ref, err := seq.ConcreteState()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfinal outage count: %d (sequential reference: %d, match: %t)\n",
		final.Count.Get(), ref.Count.Get(), final.Count.Get() == ref.Count.Get())
	return nil
}
