// End-to-end integration test: generate a corpus to disk exactly as
// cmd/datagen does, load it back through the public API, run a query
// under every engine, and verify byte-for-byte agreement — the full
// pipeline a downstream user of this library would run.
package repro

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/wire"
	"repro/symple"
)

type gapState struct {
	LastOk symple.SymInt
	Gaps   symple.SymIntVector
}

func (s *gapState) Fields() []symple.Value { return []symple.Value{&s.LastOk, &s.Gaps} }

func gapQuery() *symple.Query[*gapState, int64, []int64] {
	return &symple.Query[*gapState, int64, []int64]{
		Name: "integration-outages",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			ok, valid := data.ParseInt(data.Field(rec, 3))
			if !valid || ok != 1 {
				return nil, 0, false
			}
			ts, valid := data.ParseInt(data.Field(rec, 0))
			if !valid {
				return nil, 0, false
			}
			return data.Field(rec, 2), ts, true
		},
		NewState: func() *gapState {
			return &gapState{LastOk: symple.NewSymInt(math.MaxInt64 / 2)}
		},
		Update: func(ctx *symple.Ctx, s *gapState, ts int64) {
			if s.LastOk.Lt(ctx, ts-300) {
				s.Gaps.PushInt(&s.LastOk)
				s.Gaps.Push(ts)
			}
			s.LastOk.Set(ts)
		},
		Result:      func(_ string, s *gapState) []int64 { return s.Gaps.Elems() },
		EncodeEvent: func(e *wire.Encoder, ts int64) { e.Varint(ts) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
}

func TestEndToEndDiskPipeline(t *testing.T) {
	// 1. Generate a corpus and write it to disk as datagen does.
	dir := t.TempDir()
	gen := data.GenBing(data.BingConfig{
		Records: 15000, Users: 300, Geos: 9, Segments: 6,
		Filler: 40, Seed: 123, Outages: 5,
	})
	if err := mapreduce.WriteSegments(dir, gen); err != nil {
		t.Fatal(err)
	}

	// 2. Load it back through the public API.
	segs, err := symple.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 6 {
		t.Fatalf("%d segments", len(segs))
	}

	// 3. Run every engine.
	q := gapQuery()
	seq, err := symple.RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := symple.RunBaseline(q, segs, symple.Config{NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	symp, err := symple.RunSymple(q, segs, symple.Config{NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}

	// 4. Everything agrees, and the run found real structure.
	if len(seq.Results) == 0 {
		t.Fatal("no groups")
	}
	found := 0
	for _, gaps := range seq.Results {
		found += len(gaps) / 2
	}
	if found == 0 {
		t.Fatal("no outage windows detected")
	}
	for name, out := range map[string]*symple.Output[[]int64]{
		"baseline": base, "symple": symp,
	} {
		if !reflect.DeepEqual(seq.Results, out.Results) {
			t.Fatalf("%s differs from sequential", name)
		}
	}

	// 5. SYMPLE shuffled far less than the baseline.
	if symp.Metrics.ShuffleBytes*5 > base.Metrics.ShuffleBytes {
		t.Fatalf("shuffle reduction too small: %d vs %d",
			symp.Metrics.ShuffleBytes, base.Metrics.ShuffleBytes)
	}
}
