package mapreduce

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// wordMap is the map function the equivalence tests run: every record
// emits the keys emitsPerRecord names, with itself as the value.
func wordMap(emitsPerRecord func(rec []byte) []string) MapFunc {
	return func(id int, seg *Segment, emit Emit) error {
		for i, rec := range seg.Records {
			for _, key := range emitsPerRecord(rec) {
				emit(key, int64(i), rec)
			}
		}
		return nil
	}
}

// captureJob runs a job under the given config and records the exact
// reduce-side delivery — per reducer, the ordered stream of (key,
// mapperID, recordID, value) — in a printable form, comparable byte for
// byte with modelShuffle's rendering.
func captureJob(t *testing.T, segs []*Segment, conf Config, mapFn MapFunc) (map[int]string, *Metrics) {
	t.Helper()
	var mu sync.Mutex
	streams := map[int]*strings.Builder{}
	job := &Job{
		Name: "capture",
		Map:  mapFn,
		Reduce: func(r, _ int, key string, values []Shuffled) error {
			mu.Lock()
			defer mu.Unlock()
			b := streams[r]
			if b == nil {
				b = &strings.Builder{}
				streams[r] = b
			}
			fmt.Fprintf(b, "group %q\n", key)
			for _, v := range values {
				fmt.Fprintf(b, "  %d %d %q\n", v.MapperID, v.RecordID, v.Value)
			}
			return nil
		},
		Conf: conf,
	}
	m, err := job.Run(segs)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]string, len(streams))
	for r, b := range streams {
		out[r] = b.String()
	}
	return out, m
}

// modelShuffle is §5.4 as a specification, not a second engine: run Map
// serially in mapperID order, partition by FNV-1a, list each partition's
// groups in order of first appearance over (mapperID, emit order), order
// each group's values by (mapperID, recordID) with emit order breaking
// ties, and print it the way captureJob does. It returns the per-reducer
// streams plus the record, group and logical-byte counts.
func modelShuffle(segs []*Segment, reducers int, mapFn MapFunc) (out map[int]string, recs, groups, logical int64) {
	type group struct {
		key  string
		recs []kvRec
	}
	parts := make([][]*group, reducers)
	byKey := map[string]*group{}
	for _, seg := range slices.SortedStableFunc(slices.Values(segs), func(a, b *Segment) int { return cmp.Compare(a.ID, b.ID) }) {
		_ = mapFn(seg.ID, seg, func(key string, recordID int64, value []byte) {
			g := byKey[key]
			if g == nil {
				h := fnv.New32a()
				h.Write([]byte(key))
				g = &group{key: key}
				byKey[key] = g
				p := h.Sum32() % uint32(reducers)
				parts[p] = append(parts[p], g)
			}
			r := kvRec{key: key, mapperID: seg.ID, recordID: recordID, value: value}
			g.recs = append(g.recs, r)
			recs, logical = recs+1, logical+r.wireSize()
		})
	}
	out = map[int]string{}
	for p, gs := range parts {
		var b strings.Builder
		for _, g := range gs {
			slices.SortStableFunc(g.recs, func(x, y kvRec) int {
				return cmp.Or(cmp.Compare(x.mapperID, y.mapperID), cmp.Compare(x.recordID, y.recordID))
			})
			groups++
			fmt.Fprintf(&b, "group %q\n", g.key)
			for _, r := range g.recs {
				fmt.Fprintf(&b, "  %d %d %q\n", r.mapperID, r.recordID, r.value)
			}
		}
		if len(gs) > 0 {
			out[p] = b.String()
		}
	}
	return out, recs, groups, logical
}

// checkAgainstModel runs the job under conf and requires a delivery
// byte-identical to the model's — same reducers, same group order, same
// within-group record order, same payloads — and matching accounting.
func checkAgainstModel(t *testing.T, label string, segs []*Segment, conf Config, mapFn MapFunc) {
	t.Helper()
	got, gm := captureJob(t, segs, conf, mapFn)
	want, recs, groups, logical := modelShuffle(segs, max(conf.NumReducers, 1), mapFn)
	if len(got) != len(want) {
		t.Fatalf("%s: %d reducers produced output, model %d", label, len(got), len(want))
	}
	for r, s := range want {
		if got[r] != s {
			t.Errorf("%s reducer %d: streams differ\nengine:\n%s\nmodel:\n%s", label, r, got[r], s)
		}
	}
	var inBytes, inRecs int64
	for _, seg := range segs {
		inBytes, inRecs = inBytes+seg.Bytes(), inRecs+int64(len(seg.Records))
	}
	// The engine ships compact segments, so its wire bytes are its own —
	// but the logical volume (the legacy framing) is a property of the
	// records, and the segment encoding must never inflate past it.
	if gm.ShuffleLogicalBytes != logical || gm.ShuffleRecords != recs || gm.Groups != groups ||
		gm.InputBytes != inBytes || gm.InputRecords != inRecs {
		t.Errorf("%s: accounting diverged: engine %+v, model %d recs %d groups %d logical bytes",
			label, gm, recs, groups, logical)
	}
	if gm.ShuffleBytes > gm.ShuffleLogicalBytes {
		t.Errorf("%s: segment encoding inflated the shuffle: wire %d > logical %d",
			label, gm.ShuffleBytes, gm.ShuffleLogicalBytes)
	}
}

func randomSegments(rng *rand.Rand, numSegments, maxPerSeg int) []*Segment {
	segs := make([]*Segment, numSegments)
	for i := range segs {
		segs[i] = &Segment{ID: i}
		n := rng.Intn(maxPerSeg + 1)
		for r := 0; r < n; r++ {
			segs[i].Records = append(segs[i].Records,
				[]byte(fmt.Sprintf("rec-%d-%d-%d", i, r, rng.Intn(1000))))
		}
	}
	return segs
}

// TestStreamingMatchesModel asserts the shuffle's determinism contract
// across randomized inputs, segmentations and reducer counts.
func TestStreamingMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numSegs := 1 + rng.Intn(7)
		reducers := 1 + rng.Intn(5)
		segs := randomSegments(rng, numSegs, 120)
		// One emit per record with a skewed key space: ties in
		// (key, mapperID, recordID) cannot occur.
		emits := func(rec []byte) []string {
			return []string{fmt.Sprintf("key-%d", len(rec)%17)}
		}
		checkAgainstModel(t, fmt.Sprintf("seed %d", seed), segs,
			Config{NumReducers: reducers, Parallelism: 4}, wordMap(emits))
	}
}

// TestStreamingMatchesModelMultiEmit covers records that emit several
// keys — including repeated keys from the same record, the one case
// where a group's (mapperID, recordID) order has ties, which the engine
// must resolve by emit order.
func TestStreamingMatchesModelMultiEmit(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		segs := randomSegments(rng, 1+rng.Intn(5), 80)
		emits := func(rec []byte) []string {
			k := fmt.Sprintf("w%d", len(rec)%11)
			return []string{k, fmt.Sprintf("w%d", int(rec[0])%7), k}
		}
		checkAgainstModel(t, fmt.Sprintf("seed %d", seed), segs, Config{NumReducers: 3, Parallelism: 3}, wordMap(emits))
	}
}

// TestStreamingMatchesModelDescending runs a map that walks its segment
// backwards, so every key's records are emitted in descending recordID
// order (twice per record on some keys, so ties too): delivery must
// still be in (mapperID, recordID) order, emit order among equal pairs.
func TestStreamingMatchesModelDescending(t *testing.T) {
	mapFn := func(id int, seg *Segment, emit Emit) error {
		for i := len(seg.Records) - 1; i >= 0; i-- {
			rec := seg.Records[i]
			emit(fmt.Sprintf("d%d", len(rec)%5), int64(i), rec)
			if i%4 == 0 {
				emit(fmt.Sprintf("d%d", len(rec)%5), int64(i), []byte("again"))
			}
		}
		return nil
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		segs := randomSegments(rng, 2+rng.Intn(4), 60)
		checkAgainstModel(t, fmt.Sprintf("seed %d", seed), segs, Config{NumReducers: 2, Parallelism: 3}, mapFn)
		got, _ := captureJob(t, segs, Config{NumReducers: 1}, mapFn)
		var prevMapper, prevRec int64 = -1, -1
		for _, line := range strings.Split(got[0], "\n") {
			var m, r int64
			if _, err := fmt.Sscanf(line, "  %d %d", &m, &r); err != nil {
				prevMapper, prevRec = -1, -1 // a group header
				continue
			}
			if m < prevMapper || m == prevMapper && r < prevRec {
				t.Fatalf("seed %d: (%d, %d) delivered after (%d, %d)", seed, m, r, prevMapper, prevRec)
			}
			prevMapper, prevRec = m, r
		}
	}
}

// delayTask0 runs every map attempt body through ExecuteMap, arming a
// delay fault at map start on task 0 so its runs reach the reducers last.
type delayTask0 struct {
	mapFn MapFunc
	parts int
}

func (d delayTask0) RunMap(_ context.Context, task, attempt int, seg *Segment, faults AttemptFaults) (*MapOutput, error) {
	if task == 0 {
		faults = append(faults, Fault{Point: PointMapStart, Kind: KindDelay, Delay: 30 * time.Millisecond})
	}
	var runs runList
	out, err := ExecuteMap(d.mapFn, seg, task, attempt, d.parts, false, nil, &runs, faults...)
	if err != nil {
		return nil, err
	}
	out.Runs = runs
	return out, nil
}

// TestArrivalOrderInvisible delays task 0 so that its runs arrive after
// every other mapper's: the delivered stream must equal the undelayed
// one byte for byte, since the reducer reads runs by mapperID, not by
// arrival.
func TestArrivalOrderInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	segs := randomSegments(rng, 5, 80)
	mapFn := wordMap(func(rec []byte) []string {
		return []string{fmt.Sprintf("a%d", len(rec)%9), fmt.Sprintf("b%d", rec[len(rec)-1]%4)}
	})
	conf := Config{NumReducers: 3, Parallelism: 4}
	want, _ := captureJob(t, segs, conf, mapFn)
	conf.RemoteMap = delayTask0{mapFn: mapFn, parts: conf.NumReducers}
	got, _ := captureJob(t, segs, conf, mapFn)
	if len(got) != len(want) {
		t.Fatalf("%d reducers produced output, undelayed %d", len(got), len(want))
	}
	for r, s := range want {
		if got[r] != s {
			t.Errorf("reducer %d: delayed stream differs\ndelayed:\n%s\nundelayed:\n%s", r, got[r], s)
		}
	}
}

// TestPartitionMatchesFNV pins the inlined FNV-1a against hash/fnv.
func TestPartitionMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "ab", "user42", "advertiser-9", "Ω≈ç√∫", strings.Repeat("x", 300)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("key-%d-%d", i, rng.Int63()))
	}
	for _, key := range keys {
		for _, n := range []int{1, 2, 7, 64} {
			h := fnv.New32a()
			_, _ = h.Write([]byte(key))
			want := int(h.Sum32() % uint32(n))
			if got := partition(key, n); got != want {
				t.Fatalf("partition(%q, %d) = %d, fnv says %d", key, n, got, want)
			}
		}
	}
}

// TestWireSizeMatchesEncoder pins the arithmetic wire size against
// what wire.Encoder actually produces for the legacy frame, across
// varint length boundaries.
func TestWireSizeMatchesEncoder(t *testing.T) {
	recs := []kvRec{
		{},
		{key: "k", mapperID: 1, recordID: 1, value: []byte("v")},
		{key: strings.Repeat("k", 127), mapperID: 127, recordID: 127, value: make([]byte, 127)},
		{key: strings.Repeat("k", 128), mapperID: 128, recordID: 128, value: make([]byte, 128)},
		{key: strings.Repeat("k", 20000), mapperID: 1 << 20, recordID: 1 << 40, value: make([]byte, 16384)},
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		recs = append(recs, kvRec{
			key:      strings.Repeat("a", rng.Intn(500)),
			mapperID: rng.Intn(1 << 16),
			recordID: rng.Int63(),
			value:    make([]byte, rng.Intn(2000)),
		})
	}
	for _, r := range recs {
		e := wire.NewEncoder(0)
		e.Uvarint(uint64(len(r.key)))
		e.Uvarint(uint64(r.mapperID))
		e.Uvarint(uint64(r.recordID))
		e.Uvarint(uint64(len(r.value)))
		want := int64(e.Len() + len(r.key) + len(r.value))
		if got := r.wireSize(); got != want {
			t.Fatalf("wireSize(%d-byte key, mapper %d, record %d, %d-byte value) = %d, encoder says %d",
				len(r.key), r.mapperID, r.recordID, len(r.value), got, want)
		}
	}
}

// TestPipelinedStress drives many mappers and reducers concurrently —
// 24 runs per partition arriving while their reducers wait — and
// verifies counts. Run with -race this covers the no-barrier pipeline's
// synchronization.
func TestPipelinedStress(t *testing.T) {
	const segsN, perSeg, reducers = 24, 200, 6
	segs := make([]*Segment, segsN)
	for i := range segs {
		segs[i] = &Segment{ID: i}
		for r := 0; r < perSeg; r++ {
			segs[i].Records = append(segs[i].Records, []byte(fmt.Sprintf("%d-%d", i, r)))
		}
	}
	var groups, records int64
	var mu sync.Mutex
	job := &Job{
		Name: "stress",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				emit(fmt.Sprintf("key-%d", (id*perSeg+i)%97), int64(i), rec)
			}
			return nil
		},
		Reduce: func(_, _ int, key string, values []Shuffled) error {
			mu.Lock()
			groups++
			records += int64(len(values))
			mu.Unlock()
			return nil
		},
		Conf: Config{NumReducers: reducers, Parallelism: 4},
	}
	m, err := job.Run(segs)
	if err != nil {
		t.Fatal(err)
	}
	if groups != 97 || m.Groups != 97 {
		t.Errorf("groups = %d (metrics %d), want 97", groups, m.Groups)
	}
	if records != segsN*perSeg || m.ShuffleRecords != segsN*perSeg {
		t.Errorf("records = %d (metrics %d), want %d", records, m.ShuffleRecords, segsN*perSeg)
	}
}
