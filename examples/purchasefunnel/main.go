// Purchasefunnel: the paper's Figure 1 UDA, end to end on the MapReduce
// runtime.
//
// Over a timestamp-ordered web log grouped by user, report the items a
// user (i) searched for, (ii) then read more than ten reviews about, and
// (iii) eventually purchased. The UDA carries three dependences across
// the loop (a flag, a counter, and an output vector), yet SYMPLE lifts
// it into the mappers and matches the sequential output exactly. Run it:
//
//	go run ./examples/purchasefunnel
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"strings"

	"repro/symple"
)

// Event kinds in the web log.
const (
	evSearch = iota
	evReview
	evPurchase
	evOther
	numEventKinds
)

var kindNames = [numEventKinds]string{"search", "review", "purchase", "other"}

// FunnelEvent is what the UDA consumes per record.
type FunnelEvent struct {
	Kind int64
	Item string
}

// FunnelState mirrors Figure 1: srch_found, count, ret.
type FunnelState struct {
	SrchFound symple.SymBool
	Count     symple.SymInt
	Ret       symple.SymVector[string]
}

// Fields implements symple.State.
func (s *FunnelState) Fields() []symple.Value {
	return []symple.Value{&s.SrchFound, &s.Count, &s.Ret}
}

func newFunnelState() *FunnelState {
	return &FunnelState{
		SrchFound: symple.NewSymBool(false),
		Count:     symple.NewSymInt(0),
		Ret:       symple.NewSymVector(symple.StringCodec()),
	}
}

// update is the UDA of Figure 1, transliterated.
func update(ctx *symple.Ctx, s *FunnelState, e FunnelEvent) {
	// look for a search event
	if s.SrchFound.IsFalse(ctx) && e.Kind == evSearch {
		// start counting reviews
		s.SrchFound.Set(true)
		s.Count.Set(0)
	}
	// count reviews
	if s.SrchFound.IsTrue(ctx) && e.Kind == evReview {
		s.Count.Inc()
	}
	// on a purchase event
	if s.SrchFound.IsTrue(ctx) && e.Kind == evPurchase {
		// report if count > 10
		if s.Count.Gt(ctx, 10) {
			s.Ret.Push(e.Item)
		}
		// look for the next search
		s.SrchFound.Set(false)
	}
}

// genLog builds a synthetic per-user activity log as raw TSV records
// (user \t kind \t item) spread over ordered segments.
func genLog(users, records, segments int) []*symple.Segment {
	r := rand.New(rand.NewSource(99))
	items := []string{"tv", "laptop", "novel", "espresso"}
	segs := make([]*symple.Segment, segments)
	for i := range segs {
		segs[i] = &symple.Segment{ID: i}
	}
	for i := 0; i < records; i++ {
		kind := int64(evOther)
		switch w := r.Intn(10); {
		case w < 2:
			kind = evSearch
		case w < 8:
			kind = evReview
		case w < 9:
			kind = evPurchase
		}
		rec := fmt.Sprintf("u%d\t%s\t%s",
			r.Intn(users), kindNames[kind], items[r.Intn(len(items))])
		s := segs[i*segments/records]
		s.Records = append(s.Records, []byte(rec))
	}
	return segs
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example: it writes its report to w.
func run(w io.Writer) error {
	q := &symple.Query[*FunnelState, FunnelEvent, []string]{
		Name: "purchase-funnel",
		GroupBy: func(rec []byte) ([]byte, FunnelEvent, bool) {
			parts := bytes.SplitN(rec, []byte("\t"), 3) // the key views the record
			if len(parts) != 3 {
				return nil, FunnelEvent{}, false
			}
			for k, n := range kindNames {
				if string(parts[1]) == n {
					return parts[0], FunnelEvent{Kind: int64(k), Item: string(parts[2])}, true
				}
			}
			return nil, FunnelEvent{}, false
		},
		NewState: newFunnelState,
		Update:   update,
		Result: func(_ string, s *FunnelState) []string {
			return s.Ret.Elems()
		},
	}

	segs := genLog(40, 30000, 6)

	symp, err := symple.RunSymple(q, segs, symple.Config{NumReducers: 2})
	if err != nil {
		return err
	}
	seq, err := symple.RunSequential(q, segs)
	if err != nil {
		return err
	}

	reported := 0
	for _, user := range symp.Keys() {
		items := symp.Results[user]
		if len(items) == 0 {
			continue
		}
		if reported < 8 {
			fmt.Fprintf(w, "%s purchased after >10 reviews: %s\n", user, strings.Join(items, ", "))
		}
		reported++
	}
	fmt.Fprintf(w, "... %d users reported in total\n", reported)

	// The whole point: identical to the sequential execution.
	agree := len(seq.Results) == len(symp.Results)
	for k, v := range seq.Results {
		w := symp.Results[k]
		if len(v) != len(w) {
			agree = false
			break
		}
		for i := range v {
			if v[i] != w[i] {
				agree = false
			}
		}
	}
	fmt.Fprintf(w, "matches sequential execution: %t\n", agree)
	fmt.Fprintf(w, "shuffle: %d bytes symbolic vs %d bytes of raw events it replaced\n",
		symp.Metrics.ShuffleBytes, seq.Metrics.InputBytes)
	return nil
}
