// Gpssessions: the paper's §4.4 example — sessionizing GPS traces with a
// black-box predicate.
//
// The UDA splits each user's GPS events into sessions: maximal runs in
// which every event is within a bounded distance of the previous one.
// The distance check is nonlinear, so no canonical constraint form
// exists; SymPred instead explores both outcomes of the first check
// blindly and validates the recorded assumption at composition time.
// Because the UDA assigns a concrete value to prev on every record
// (windowed dependence of size one), the path blowup is bounded by two.
// Run it:
//
//	go run ./examples/gpssessions
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"repro/internal/wire"
	"repro/symple"
)

// GPSCoord is a latitude/longitude pair.
type GPSCoord struct {
	Lat, Lon float64
}

// distanceLessThanBound is the black-box predicate from the paper:
// whether two coordinates are within ~500m (using an equirectangular
// approximation — the point is that SYMPLE never reasons about it).
func distanceLessThanBound(sym, val GPSCoord) bool {
	const earthRadiusM = 6_371_000
	latRad := (sym.Lat + val.Lat) / 2 * math.Pi / 180
	dx := (val.Lon - sym.Lon) * math.Cos(latRad)
	dy := val.Lat - sym.Lat
	meters := math.Sqrt(dx*dx+dy*dy) * math.Pi / 180 * earthRadiusM
	return meters < 500
}

// gpsCodec serializes coordinates inside summaries.
func gpsCodec() symple.Codec[GPSCoord] {
	return symple.Codec[GPSCoord]{
		Encode: func(e *wire.Encoder, c GPSCoord) {
			e.Float64(c.Lat)
			e.Float64(c.Lon)
		},
		Decode: func(d *wire.Decoder) GPSCoord {
			return GPSCoord{Lat: d.Float64(), Lon: d.Float64()}
		},
		Equal: func(a, b GPSCoord) bool { return a == b },
	}
}

// SessionState is CountEventsInSessions' aggregation state.
type SessionState struct {
	Prev   symple.SymPred[GPSCoord]
	Count  symple.SymInt
	Counts symple.SymIntVector
}

// Fields implements symple.State.
func (s *SessionState) Fields() []symple.Value {
	return []symple.Value{&s.Prev, &s.Count, &s.Counts}
}

func newSessionState() *SessionState {
	return &SessionState{
		// The initial "previous" coordinate is far from everything.
		Prev:  symple.NewSymPred(distanceLessThanBound, gpsCodec(), GPSCoord{Lat: -90, Lon: 0}),
		Count: symple.NewSymInt(0),
	}
}

// update is CountEventsInSessions from the paper.
func update(ctx *symple.Ctx, s *SessionState, coord GPSCoord) {
	if s.Prev.EvalPred(ctx, coord) {
		// same session
		s.Count.Inc()
	} else {
		// reset
		s.Counts.PushInt(&s.Count)
		s.Count.Set(1)
	}
	s.Prev.SetValue(coord)
}

// walk generates one user's GPS trace: mostly small steps with
// occasional jumps that break the session.
func walk(r *rand.Rand, n int) []GPSCoord {
	cur := GPSCoord{Lat: 47.37, Lon: 8.54} // Zürich
	var out []GPSCoord
	for i := 0; i < n; i++ {
		if r.Intn(40) == 0 {
			cur.Lat += (r.Float64() - 0.5) * 0.5 // teleport: new session
			cur.Lon += (r.Float64() - 0.5) * 0.5
		} else {
			cur.Lat += (r.Float64() - 0.5) * 0.002 // ~±100m
			cur.Lon += (r.Float64() - 0.5) * 0.002
		}
		out = append(out, cur)
	}
	return out
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example: it writes its report to w.
func run(w io.Writer) error {
	r := rand.New(rand.NewSource(4))
	trace := walk(r, 5000)

	// Sequential reference.
	seq := symple.NewConcreteExecutor(newSessionState, update, symple.DefaultOptions())
	for _, c := range trace {
		if err := seq.Feed(c); err != nil {
			return err
		}
	}
	ref, err := seq.ConcreteState()
	if err != nil {
		return err
	}

	// Symbolic: split the trace into 8 chunks, summarize each
	// independently, compose.
	const chunks = 8
	var summaries []*symple.Summary[*SessionState]
	for c := 0; c < chunks; c++ {
		x := symple.NewExecutor(newSessionState, update, symple.DefaultOptions())
		lo, hi := c*len(trace)/chunks, (c+1)*len(trace)/chunks
		for _, coord := range trace[lo:hi] {
			if err := x.Feed(coord); err != nil {
				return err
			}
		}
		sums, err := x.Finish()
		if err != nil {
			return err
		}
		if n := sums[0].NumPaths(); n > 2 {
			return fmt.Errorf("windowed dependence should bound paths at 2, got %d", n)
		}
		summaries = append(summaries, sums...)
	}
	final, err := symple.ApplyAll(newSessionState(), summaries)
	if err != nil {
		return err
	}

	sessions := final.Counts.Elems()
	want := ref.Counts.Elems()
	match := len(sessions) == len(want)
	for i := range want {
		if match && sessions[i] != want[i] {
			match = false
		}
	}
	fmt.Fprintf(w, "trace of %d GPS events → %d closed sessions (+1 open, %d events)\n",
		len(trace), len(sessions), final.Count.Get())
	if len(sessions) > 10 {
		fmt.Fprintf(w, "first sessions: %v ...\n", sessions[:10])
	}
	fmt.Fprintf(w, "matches sequential execution: %t\n", match && final.Count.Get() == ref.Count.Get())
	return nil
}
