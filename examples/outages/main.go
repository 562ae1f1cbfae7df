// Outages: the paper's B1 query — the no-groupby-parallelism extreme.
//
// Over a service log with a single group ("all traffic"), find every
// window longer than two minutes with no successful request. A baseline
// MapReduce must funnel every record through one reducer (the paper
// measured 4.5 hours on their cluster); SYMPLE's mappers each ship a
// summary of a few dozen bytes and the reducer composes them in seconds.
// Run it:
//
//	go run ./examples/outages
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/data"
	"repro/symple"
)

// OutageState tracks the last successful request's timestamp; outage
// windows are appended as (start, end) pairs, the start possibly still
// symbolic when the gap spans a chunk boundary.
type OutageState struct {
	LastOk symple.SymInt
	Gaps   symple.SymIntVector
}

// Fields implements symple.State.
func (s *OutageState) Fields() []symple.Value {
	return []symple.Value{&s.LastOk, &s.Gaps}
}

func newOutageState() *OutageState {
	// Initialized far in the future so the first success never counts
	// as ending an outage.
	return &OutageState{LastOk: symple.NewSymInt(math.MaxInt64 / 2)}
}

func update(ctx *symple.Ctx, s *OutageState, ts int64) {
	// Outage iff ts − LastOk > 120s, i.e. LastOk < ts − 120.
	if s.LastOk.Lt(ctx, ts-120) {
		s.Gaps.PushInt(&s.LastOk)
		s.Gaps.Push(ts)
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
	// Reuse the Bing-style generator: timestamp-ordered log with global
	// outage gaps injected.
	segs := data.GenBing(data.BingConfig{
		Records: 120000, Users: 5000, Geos: 20, Segments: 10,
		Filler: 32, Seed: 7, Outages: 9,
	})

	q := &symple.Query[*OutageState, int64, [][2]int64]{
		Name: "outages",
		GroupBy: func(rec []byte) (string, int64, bool) {
			ok, valid := data.ParseInt(data.Field(rec, 3))
			if !valid || ok != 1 {
				return "", 0, false
			}
			ts, valid := data.ParseInt(data.Field(rec, 0))
			if !valid {
				return "", 0, false
			}
			return "all", ts, true
		},
		NewState: newOutageState,
		Update:   update,
		Result: func(_ string, s *OutageState) [][2]int64 {
			flat := s.Gaps.Elems()
			out := make([][2]int64, 0, len(flat)/2)
			for i := 0; i+1 < len(flat); i += 2 {
				out = append(out, [2]int64{flat[i], flat[i+1]})
			}
			return out
		},
	}

	symp, err := symple.RunSymple(q, segs, symple.Config{NumReducers: 1})
	if err != nil {
		return err
	}
	seq, err := symple.RunSequential(q, segs)
	if err != nil {
		return err
	}

	gaps := symp.Results["all"]
	fmt.Fprintf(w, "detected %d outages:\n", len(gaps))
	for _, g := range gaps {
		fmt.Fprintf(w, "  %d → %d (%ds with no successful request)\n", g[0], g[1], g[1]-g[0])
	}

	want := seq.Results["all"]
	match := len(gaps) == len(want)
	for i := range want {
		if match && gaps[i] != want[i] {
			match = false
		}
	}
	fmt.Fprintf(w, "matches sequential execution: %t\n", match)
	fmt.Fprintf(w, "shuffle: SYMPLE shipped %d bytes in %d summary bundles; the baseline would ship every successful request to one reducer\n",
		symp.Metrics.ShuffleBytes, symp.Metrics.ShuffleRecords)
	return nil
}
