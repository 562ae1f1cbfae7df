package sym

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

// FuzzDecodeSummary feeds arbitrary bytes to the summary decoder for the
// funnel state (bool + int + string vector): it must never panic, and
// anything it accepts must survive re-encoding.
func FuzzDecodeSummary(f *testing.F) {
	// Seed with a genuine summary.
	x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
	for i := 0; i < 20; i++ {
		if err := x.Feed(funnelEvent{kind: i % 4, item: "t"}); err != nil {
			f.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		f.Fatal(err)
	}
	e := wire.NewEncoder(0)
	sums[0].Encode(e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSummary(newFunnelState, wire.NewDecoder(data))
		if err != nil {
			return
		}
		// Accepted summaries must re-encode without panicking.
		e := wire.NewEncoder(0)
		s.Encode(e)
		// And applying to a concrete state must not panic (it may
		// legitimately fail with ErrNoPath if the fuzzer forged
		// non-covering constraints).
		_, _ = s.Apply(newFunnelState())
	})
}

// FuzzSymIntDecode checks the SymInt decoder on raw bytes.
func FuzzSymIntDecode(f *testing.F) {
	v := NewSymInt(42)
	e := wire.NewEncoder(0)
	v.Encode(e)
	f.Add(e.Bytes())
	var s SymInt
	s.ResetSymbolic(3)
	e2 := wire.NewEncoder(0)
	s.Encode(e2)
	f.Add(e2.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var got SymInt
		if err := got.Decode(wire.NewDecoder(data)); err != nil {
			return
		}
		e := wire.NewEncoder(0)
		got.Encode(e)
		var again SymInt
		if err := again.Decode(wire.NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("re-decode of accepted value failed: %v", err)
		}
		if again != got {
			t.Fatalf("decode/encode not idempotent: %+v vs %+v", got, again)
		}
	})
}

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false,
	"regenerate testdata/fuzz-seeds/bundles and runs from their generators")

// bundleSite folds fuzzed bundles for one schema. Its fold site's start
// state is a genuine prefix, so a fold that wrongly wrote it shows.
type bundleSite struct {
	name string
	fold func(t *testing.T, data []byte) error
}

// bundleSites are the two schemas the bundle corpus is cut for: "pred",
// the B3 shape with int64 events, and "count", R1's counter with
// zero-byte struct{} events.
func bundleSites() []bundleSite {
	return []bundleSite{
		{"pred", siteFold(newPredState, sessionUpdate, int64Codec.encode, int64Codec.decode, []int64{3, 40})},
		{"count", siteFold(newR1Shape, r1ShapeUpdate, func(*wire.Encoder, struct{}) {},
			func(d *wire.Decoder) (struct{}, error) { return struct{}{}, d.Err() }, []struct{}{{}, {}})},
	}
}

// siteFold returns a fold of data through a fresh site of the schema,
// from a state prefix reached and into a state of its own (the resumed
// serve session's shape) and in place: on error neither state may
// change, and the prefix never does. It then folds data as the middle of
// a reduce group — the prefix's events before it, their summary after —
// and a rejected group must move no byte of the state.
func siteFold[S State, E any](newState func() S, update func(*Ctx, S, E),
	encode func(*wire.Encoder, E), decode func(*wire.Decoder) (E, error), prefix []E) func(*testing.T, []byte) error {
	return func(t *testing.T, data []byte) error {
		sc, err := NewEventSchema(newState, update, encode, decode)
		if err != nil {
			t.Fatal(err)
		}
		site := NewFolder(sc)
		src := site.NewState()
		if err := site.Fold(src, src, EncodeSummaryBundle(chunkSums(t, sc, update, prefix))); err != nil {
			t.Fatal(err)
		}
		dst := site.NewState()
		frozen, before := stateBytes(src), stateBytes(dst)
		errFrom := site.Fold(dst, src, data)
		if !bytes.Equal(stateBytes(src), frozen) {
			t.Fatalf("folding from the prefix wrote it (err %v)", errFrom)
		}
		if errFrom != nil && !bytes.Equal(stateBytes(dst), before) {
			t.Fatalf("a rejected bundle moved the destination: %v", errFrom)
		}
		err = site.Fold(src, src, data)
		if err != nil && !bytes.Equal(stateBytes(src), frozen) {
			t.Fatalf("a rejected bundle moved the state: %v", err)
		}
		if (err == nil) != (errFrom == nil) {
			t.Fatalf("in place: %v; into another state: %v", err, errFrom)
		}
		events := wire.NewEncoder(8)
		events.Uvarint(0)
		events.Uvarint(uint64(len(prefix)))
		for _, e := range prefix {
			encode(events, e)
		}
		was := stateBytes(src)
		summary := EncodeSummaryBundle(chunkSums(t, sc, update, prefix))
		if errGroup := site.Fold(src, src, events.Bytes(), data, summary); errGroup != nil && !bytes.Equal(stateBytes(src), was) {
			t.Fatalf("a rejected group moved the state: %v", errGroup)
		}
		return err
	}
}

// bundleSeedCorpus builds the committed bundle corpus. Names are
// load-bearing: valid-<site>-* must fold at that site, corrupt-<site>-*
// must be rejected there, and corrupt-any-* at every site; each form a
// count of 0 takes is here — one event and a full group, zero-byte events,
// no events, one past the cap, a huge forged count over the zero-byte
// codec, a cut inside each event of a group, trailing bytes after one.
func bundleSeedCorpus(t *testing.T) []fuzzseed.Seed {
	pred := EncodeSummaryBundle(append(chunkSums(t, newSchema(newPredState), sessionUpdate, []int64{50, 55}),
		chunkSums(t, newSchema(newPredState), sessionUpdate, []int64{7})...))
	count := EncodeSummaryBundle(chunkSums(t, newSchema(newR1Shape), r1ShapeUpdate, []struct{}{{}, {}, {}}))
	forged := wire.NewEncoder(4)
	forged.Uvarint(1 << 20)
	full := make([]int64, maxEventGroup)
	for i := range full {
		full[i] = int64(300 * (i + 1)) // two-byte varints, so a cut can land inside one
	}
	group := eventBundle(full...)
	seeds := []fuzzseed.Seed{
		{Name: "valid-pred-summaries.bin", Data: pred},
		{Name: "valid-pred-event.bin", Data: eventBundle(55)},
		{Name: "valid-pred-events-full.bin", Data: group},
		{Name: "valid-count-summary.bin", Data: count},
		{Name: "valid-count-zero-byte-event.bin", Data: []byte{0, 1}},
		{Name: "valid-count-zero-byte-events-full.bin", Data: []byte{0, maxEventGroup}},
		{Name: "corrupt-pred-zero-byte-event.bin", Data: []byte{0, 1}}, // an int64 event cut to nothing
		{Name: "corrupt-pred-summaries-truncated.bin", Data: pred[:len(pred)/2]},
		{Name: "corrupt-pred-summaries-trailing.bin", Data: append(bytes.Clone(pred), 0)},
		{Name: "corrupt-any-empty.bin", Data: []byte{}},
		{Name: "corrupt-any-no-count.bin", Data: []byte{0}},
		{Name: "corrupt-any-no-events.bin", Data: []byte{0, 0}},
		{Name: "corrupt-any-events-over-cap.bin", Data: eventBundle(make([]int64, maxEventGroup+1)...)},
		{Name: "corrupt-any-events-forged-count.bin", Data: append([]byte{0}, forged.Bytes()...)},
		{Name: "corrupt-any-truncated-event.bin", Data: []byte{0, 1, 0x80}},
		{Name: "corrupt-any-event-trailing.bin", Data: append(eventBundle(55), 1)},
		{Name: "corrupt-any-events-trailing.bin", Data: append(bytes.Clone(group), 1)},
		{Name: "corrupt-any-forged-count.bin", Data: forged.Bytes()},
	}
	// A cut inside each event of the full group: after its first byte.
	for i := range full {
		seeds = append(seeds, fuzzseed.Seed{Name: fmt.Sprintf("corrupt-pred-events-cut-in-%d.bin", i+1),
			Data: group[:2+2*i+1]})
	}
	return seeds
}

// TestUpdateBundleFuzzSeeds regenerates the committed corpus when run
// with -update-fuzz-seeds; otherwise it only checks the generator runs.
func TestUpdateBundleFuzzSeeds(t *testing.T) {
	corpus := bundleSeedCorpus(t)
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/bundles", len(corpus))
	}
	if err := fuzzseed.Update("bundles", corpus); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzSeedBundleCorpus holds every committed bundle seed to its
// name at every site (siteFold checks the states).
func TestFuzzSeedBundleCorpus(t *testing.T) {
	seeds, err := fuzzseed.Load("bundles")
	if err != nil {
		t.Fatal(err)
	}
	var valid, corrupt int
	for _, s := range seeds {
		verdict, site, ok := strings.Cut(s.Name, "-")
		site, _, _ = strings.Cut(site, "-")
		if !ok || (verdict != "valid" && verdict != "corrupt") {
			t.Fatalf("%s: seed name must be valid-<site>-… or corrupt-<site>-…", s.Name)
		}
		for _, bs := range bundleSites() {
			err := bs.fold(t, s.Data)
			switch {
			case verdict == "valid" && site == bs.name && err != nil:
				t.Errorf("%s: rejected at %s: %v", s.Name, bs.name, err)
			case verdict == "corrupt" && (site == bs.name || site == "any") && err == nil:
				t.Errorf("%s: accepted at %s", s.Name, bs.name)
			}
		}
		if verdict == "valid" {
			valid++
		} else {
			corrupt++
		}
	}
	if valid < 6 || corrupt < 20 {
		t.Fatalf("corpus too small: %d valid / %d corrupt seeds", valid, corrupt)
	}
}

// FuzzBundleFold feeds arbitrary bytes to a fold site as a bundle, at
// both schemas, alone and as the middle of a three-bundle group: it must
// never panic, a rejected bundle or group must leave the state it was
// folded onto as it was, and no fold may write the state it was folded
// from.
func FuzzBundleFold(f *testing.F) {
	seeds, err := fuzzseed.Load("bundles")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, bs := range bundleSites() {
			_ = bs.fold(t, data)
		}
	})
}

// TestBundleCountZeroIsAnEvent pins the format rule: a count of 0 always
// announces a group of events — even events their codec writes as zero
// bytes, whose bundle is that 0 and the group's size — so no summary list
// may be empty, a group past maxEventGroup ships summaries, and a query
// without an event codec rejects the bundle.
func TestBundleCountZeroIsAnEvent(t *testing.T) {
	sc, err := NewEventSchema(newR1Shape, r1ShapeUpdate, func(*wire.Encoder, struct{}) {},
		func(d *wire.Decoder) (struct{}, error) { return struct{}{}, d.Err() })
	if err != nil {
		t.Fatal(err)
	}
	x := NewSchemaExecutor(sc, r1ShapeUpdate, DefaultOptions())
	site := NewFolder(sc)
	st := site.NewState()
	var enc wire.Encoder
	total := int64(0)
	for n := 1; n <= maxEventGroup+1; n++ {
		x.Reset()
		if err := x.FeedBatch(make([]struct{}, n)); err != nil {
			t.Fatal(err)
		}
		enc.Reset()
		k, err := x.AppendBundle(&enc)
		if err != nil || k != 1 {
			t.Fatalf("a group of %d impressions: %d elements, %v", n, k, err)
		}
		if events := bytes.Equal(enc.Bytes(), []byte{0, byte(n)}); events != (n <= maxEventGroup) {
			t.Fatalf("a group of %d impressions shipped %x", n, enc.Bytes())
		}
		if err := site.Fold(st, st, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		total += int64(n)
	}
	if got := st.State().Count.Get(); got != total {
		t.Fatalf("groups of zero-byte events counted %d, want %d", got, total)
	}
	plain := NewFolder(newSchema(newR1Shape))
	pst := plain.NewState()
	if err := plain.Fold(pst, pst, []byte{0, 1}); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("without an event codec: %v, want ErrCorrupt", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an empty summary list was encoded")
		}
	}()
	EncodeSummaryBundle[*r1Shape](nil)
}
