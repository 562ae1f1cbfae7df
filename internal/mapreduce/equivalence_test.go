package mapreduce

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

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

// captureJob runs a word-emitting job under the given config and records
// the exact reduce-side delivery — per reducer, the ordered stream of
// (key, mapperID, recordID, value) — in a printable form, comparable
// byte for byte with modelShuffle's rendering.
func captureJob(t *testing.T, segs []*Segment, conf Config, emitsPerRecord func(rec []byte) []string) (map[int]string, *Metrics) {
	t.Helper()
	var mu sync.Mutex
	streams := map[int]*strings.Builder{}
	job := &Job{
		Name: "capture",
		Map:  wordMap(emitsPerRecord),
		Reduce: func(r int, key string, values []Shuffled) error {
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
// serially, partition by FNV-1a, order each partition by (key, mapperID,
// recordID, emit seq), and print it the way captureJob does. It returns
// the per-reducer streams plus the record, group and logical-byte counts.
func modelShuffle(segs []*Segment, reducers int, mapFn MapFunc) (out map[int]string, recs, groups, logical int64) {
	parts := make([][]kvRec, reducers)
	for _, seg := range segs {
		_ = mapFn(seg.ID, seg, func(key string, recordID int64, value []byte) {
			h := fnv.New32a()
			h.Write([]byte(key))
			r := kvRec{key: key, mapperID: seg.ID, recordID: recordID, seq: recs, value: value}
			p := h.Sum32() % uint32(reducers)
			parts[p] = append(parts[p], r)
			recs, logical = recs+1, logical+r.wireSize()
		})
	}
	out = map[int]string{}
	for p, rs := range parts {
		slices.SortFunc(rs, func(x, y kvRec) int {
			return cmp.Or(strings.Compare(x.key, y.key), cmp.Compare(x.mapperID, y.mapperID),
				cmp.Compare(x.recordID, y.recordID), cmp.Compare(x.seq, y.seq))
		})
		var b strings.Builder
		for i, r := range rs {
			if i == 0 || rs[i-1].key != r.key {
				groups++
				fmt.Fprintf(&b, "group %q\n", r.key)
			}
			fmt.Fprintf(&b, "  %d %d %q\n", r.mapperID, r.recordID, r.value)
		}
		if len(rs) > 0 {
			out[p] = b.String()
		}
	}
	return out, recs, groups, logical
}

// checkAgainstModel runs the job under conf and requires a delivery
// byte-identical to the model's — same reducers, same group order, same
// within-group record order, same payloads — and matching accounting.
func checkAgainstModel(t *testing.T, label string, segs []*Segment, conf Config, emits func(rec []byte) []string) {
	t.Helper()
	got, gm := captureJob(t, segs, conf, emits)
	want, recs, groups, logical := modelShuffle(segs, max(conf.NumReducers, 1), wordMap(emits))
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
// across randomized inputs, segmentations and reducer counts, raw and
// compressed.
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
			Config{NumReducers: reducers, Parallelism: 4, CompressShuffle: seed%2 == 1}, emits)
	}
}

// TestStreamingMatchesModelMultiEmit covers records that emit several
// keys — including repeated keys from the same record, the one case
// where the shuffle's (key, mapperID, recordID) order has ties, which
// the engine must resolve by emit order.
func TestStreamingMatchesModelMultiEmit(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		segs := randomSegments(rng, 1+rng.Intn(5), 80)
		emits := func(rec []byte) []string {
			k := fmt.Sprintf("w%d", len(rec)%11)
			return []string{k, fmt.Sprintf("w%d", int(rec[0])%7), k}
		}
		checkAgainstModel(t, fmt.Sprintf("seed %d", seed), segs, Config{NumReducers: 3, Parallelism: 3}, emits)
	}
}

// TestLoserTreeMerge checks the k-way merge against sort over the
// concatenation, for assorted run shapes including empty runs and k not
// a power of two.
func TestLoserTreeMerge(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		k := rng.Intn(9) // 0..8 runs
		runs := make([]spillRun, k)
		var all []kvRec
		for m := 0; m < k; m++ {
			n := rng.Intn(30)
			recs := make([]kvRec, 0, n)
			for r := 0; r < n; r++ {
				recs = append(recs, kvRec{
					key:      fmt.Sprintf("k%d", rng.Intn(6)),
					mapperID: m,
					recordID: int64(r),
				})
			}
			sortRun(recs)
			all = append(all, recs...)
			runs[m] = spillRun{recs: recs}
		}
		sort.SliceStable(all, func(a, b int) bool { return recLess(&all[a], &all[b]) })
		tree := newLoserTree(runs)
		var got []kvRec
		for {
			h := tree.peek()
			if h == nil {
				break
			}
			got = append(got, *h)
			tree.advance()
		}
		if len(got) != len(all) {
			t.Fatalf("seed %d: merged %d records, want %d", seed, len(got), len(all))
		}
		for i := range got {
			if got[i].key != all[i].key || got[i].mapperID != all[i].mapperID ||
				got[i].recordID != all[i].recordID {
				t.Fatalf("seed %d: position %d: got %+v want %+v", seed, i, got[i], all[i])
			}
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
// enough spill runs per partition to exercise pre-merge folding — and
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
		Reduce: func(_ int, key string, values []Shuffled) error {
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
