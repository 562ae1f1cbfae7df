package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/wire"
)

func segmentsFromLines(lines []string, numSegments int) []*Segment {
	segs := make([]*Segment, numSegments)
	for i := range segs {
		segs[i] = &Segment{ID: i}
	}
	for i, l := range lines {
		s := segs[i*numSegments/len(lines)]
		s.Records = append(s.Records, []byte(l))
	}
	return segs
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"jumps over the lazy dog",
		"the dog barks",
	}
	segs := segmentsFromLines(lines, 2)

	var mu sync.Mutex
	counts := map[string]int{}
	job := &Job{
		Name: "wordcount",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				for _, w := range strings.Fields(string(rec)) {
					emit(w, int64(i), []byte("1"))
				}
			}
			return nil
		},
		Reduce: func(_, _ int, key string, values []Shuffled) error {
			mu.Lock()
			counts[key] = len(values)
			mu.Unlock()
			return nil
		},
		Conf: Config{NumReducers: 3},
	}
	m, err := job.Run(segs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"the": 3, "dog": 2, "quick": 1, "brown": 1,
		"fox": 1, "jumps": 1, "over": 1, "lazy": 1, "barks": 1}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("count[%q] = %d, want %d", k, counts[k], v)
		}
	}
	if m.Groups != int64(len(want)) {
		t.Errorf("groups = %d, want %d", m.Groups, len(want))
	}
	if m.ShuffleRecords != 12 {
		t.Errorf("shuffle records = %d, want 12", m.ShuffleRecords)
	}
	if m.ShuffleBytes <= 0 || m.InputBytes <= 0 {
		t.Error("byte accounting missing")
	}
	if len(m.MapTasks) != 2 || len(m.ReduceTasks) != 3 {
		t.Errorf("task metrics: %d map, %d reduce", len(m.MapTasks), len(m.ReduceTasks))
	}
}

// TestShuffleOrdering verifies the paper's §5.4 requirement: within a
// group, records arrive sorted by (mapperID, recordID) regardless of map
// completion order, reconstituting the global input order.
func TestShuffleOrdering(t *testing.T) {
	const perSeg = 50
	segs := make([]*Segment, 4)
	for i := range segs {
		segs[i] = &Segment{ID: i}
		for r := 0; r < perSeg; r++ {
			segs[i].Records = append(segs[i].Records,
				[]byte(fmt.Sprintf("%d", i*perSeg+r)))
		}
	}
	var mu sync.Mutex
	var got []int
	job := &Job{
		Name: "order",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				emit("all", int64(i), rec)
			}
			return nil
		},
		Reduce: func(_, _ int, _ string, values []Shuffled) error {
			mu.Lock()
			defer mu.Unlock()
			prevMapper, prevRec := -1, int64(-1)
			for _, v := range values {
				if v.MapperID < prevMapper ||
					(v.MapperID == prevMapper && v.RecordID <= prevRec) {
					return fmt.Errorf("order violated: (%d,%d) after (%d,%d)",
						v.MapperID, v.RecordID, prevMapper, prevRec)
				}
				prevMapper, prevRec = v.MapperID, v.RecordID
				n, _ := strconv.Atoi(string(v.Value))
				got = append(got, n)
			}
			return nil
		},
		Conf: Config{NumReducers: 1},
	}
	if _, err := job.Run(segs); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4*perSeg {
		t.Fatalf("got %d records", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d has %d: global order not reconstituted", i, v)
		}
	}
}

// TestMergeEncodedRunsMatchesJob feeds MergeEncodedRuns a job's runs in
// reverse arrival order plus a zero-record run whose mapperID lives only
// in its header: the run is accepted, and the groups come out exactly as
// the job's reducers deliver them.
func TestMergeEncodedRunsMatchesJob(t *testing.T) {
	segs := segmentsFromLines(strings.Fields("a b a c b a d a c e b a"), 4)
	mapFn := wordMap(func(rec []byte) []string { return []string{string(rec)} })
	want, _ := captureJob(t, segs, Config{NumReducers: 1}, mapFn)

	var runs runList
	for i, seg := range segs {
		if _, err := ExecuteMap(mapFn, seg, i, 0, 1, false, nil, &runs); err != nil {
			t.Fatal(err)
		}
	}
	e := wire.NewEncoder(0)
	e.Uvarint(0) // no records
	e.Uvarint(2) // mapperID
	e.StringDict(nil)
	empty := append([]byte{segRaw}, e.Bytes()...)
	rs := []Run{{Task: 2, Seg: empty}}
	for i := len(runs) - 1; i >= 0; i-- {
		rs = append(rs, runs[i])
	}
	var b strings.Builder
	err := MergeEncodedRuns(0, rs, nil, func(key string, group []Shuffled) error {
		fmt.Fprintf(&b, "group %q\n", key)
		for _, v := range group {
			fmt.Fprintf(&b, "  %d %d %q\n", v.MapperID, v.RecordID, v.Value)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != want[0] {
		t.Fatalf("MergeEncodedRuns stream differs\ngot:\n%s\njob:\n%s", b.String(), want[0])
	}
}

func TestPartitionStability(t *testing.T) {
	// Same key always lands on the same reducer.
	for _, key := range []string{"", "a", "user42", "advertiser-9"} {
		p := partition(key, 7)
		for i := 0; i < 10; i++ {
			if partition(key, 7) != p {
				t.Fatalf("partition(%q) unstable", key)
			}
		}
		if p < 0 || p >= 7 {
			t.Fatalf("partition(%q) = %d out of range", key, p)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	job := &Job{
		Name:   "failing",
		Map:    func(int, *Segment, Emit) error { return sentinel },
		Reduce: func(int, int, string, []Shuffled) error { return nil },
	}
	_, err := job.Run([]*Segment{{ID: 0, Records: [][]byte{[]byte("x")}}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	job := &Job{
		Name: "failing",
		Map: func(_ int, seg *Segment, emit Emit) error {
			emit("k", 0, []byte("v"))
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return sentinel },
	}
	_, err := job.Run([]*Segment{{ID: 0, Records: [][]byte{[]byte("x")}}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	job := &Job{
		Name:   "empty",
		Map:    func(int, *Segment, Emit) error { return nil },
		Reduce: func(int, int, string, []Shuffled) error { return nil },
	}
	m, err := job.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShuffleRecords != 0 || m.Groups != 0 {
		t.Fatal("nonzero metrics on empty input")
	}
}

func TestShuffleByteAccounting(t *testing.T) {
	// Shuffle bytes must be at least the payload bytes emitted and equal
	// the sum of per-map-task out bytes.
	payload := bytes.Repeat([]byte("v"), 100)
	job := &Job{
		Name: "bytes",
		Map: func(_ int, seg *Segment, emit Emit) error {
			for i := range seg.Records {
				emit("key", int64(i), payload)
			}
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   Config{NumReducers: 2},
	}
	segs := segmentsFromLines([]string{"a", "b", "c", "d"}, 2)
	m, err := job.Run(segs)
	if err != nil {
		t.Fatal(err)
	}
	if m.ShuffleBytes < 400 {
		t.Fatalf("shuffle bytes %d < payload 400", m.ShuffleBytes)
	}
	var fromTasks int64
	for _, task := range m.MapTasks {
		for _, b := range task.OutBytes {
			fromTasks += b
		}
	}
	if fromTasks != m.ShuffleBytes {
		t.Fatalf("task out bytes %d != shuffle bytes %d", fromTasks, m.ShuffleBytes)
	}
}

func TestManyGroupsAcrossReducers(t *testing.T) {
	// Every key appears exactly once at exactly one reducer.
	var mu sync.Mutex
	seen := map[string]int{}
	job := &Job{
		Name: "groups",
		Map: func(_ int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				emit(string(rec), int64(i), nil)
			}
			return nil
		},
		Reduce: func(_, _ int, key string, values []Shuffled) error {
			mu.Lock()
			seen[key]++
			mu.Unlock()
			return nil
		},
		Conf: Config{NumReducers: 5},
	}
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("key-%d", i%100))
	}
	if _, err := job.Run(segmentsFromLines(lines, 7)); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("saw %d keys, want 100", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %q reduced %d times", k, n)
		}
	}
}

// TestWarmJobRecyclesShuffleBuffers: a warm job's shuffle reuses the
// buffers the job before it released — the value arena each map attempt
// copies its emits into, and each run's encoded segment, which its
// reduce task returns once it ends — so the job allocates a small part
// of the bytes it shuffles, where each of the two would otherwise
// allocate them all.
func TestWarmJobRecyclesShuffleBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	value := bytes.Repeat([]byte("v"), 4<<10)
	segs := segmentsFromLines(strings.Split(strings.Repeat("r\n", 127)+"r", "\n"), 8)
	job := &Job{
		Name: "recycle",
		Map: func(_ int, seg *Segment, emit Emit) error {
			for i := range seg.Records {
				emit(strconv.Itoa(i%8), int64(i), value)
			}
			return nil
		},
		Reduce: func(_, _ int, _ string, values []Shuffled) error {
			for _, v := range values {
				if len(v.Value) != len(value) {
					return fmt.Errorf("a %d-byte value", len(v.Value))
				}
			}
			return nil
		},
		Conf: Config{NumReducers: 4, Parallelism: 1},
	}
	// Collections would empty the pools between jobs.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m *Metrics
	for range 3 {
		var err error
		if m, err = job.Run(segs); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := job.Run(segs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(m.ShuffleBytes)/4 {
		t.Errorf("a warm job allocated %d bytes shuffling %d", alloc, m.ShuffleBytes)
	}
}

// TestWarmJobKeepsRecordBuffers: a map attempt's partition buffers live
// in its pooled scratch, apart from the reduce tasks' tables, and keep
// the capacity their emits grew them to. So a warm job that partitions
// 128 records a task into each partition, run after a job of one-record
// tasks, fills buffers that hold its records instead of growing small
// ones, and allocates a small part of the record bytes it partitions.
func TestWarmJobKeepsRecordBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const parts = 4
	var keys []string // two a partition
	for i, per := 0, make([]int, parts); len(keys) < 2*parts; i++ {
		if k := strconv.Itoa(i); per[partition(k, parts)] < 2 {
			per[partition(k, parts)]++
			keys = append(keys, k)
		}
	}
	value := []byte("v")
	job := &Job{
		Name: "records",
		Map: func(_ int, seg *Segment, emit Emit) error {
			for i := range seg.Records {
				emit(keys[(seg.ID+i)%len(keys)], int64(i), value)
			}
			return nil
		},
		Reduce: func(int, int, string, []Shuffled) error { return nil },
		Conf:   Config{NumReducers: parts, Parallelism: 1},
	}
	wide := segmentsFromLines(strings.Split(strings.Repeat("r\n", 4095)+"r", "\n"), 8)
	narrow := segmentsFromLines(strings.Split(strings.Repeat("r\n", 63)+"r", "\n"), 64)
	// Collections would empty the pools between jobs, and a second P
	// would keep pooled buffers of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Start from empty pools: two collections drop what they hold.
	runtime.GC()
	runtime.GC()
	for range 3 {
		for _, segs := range [][]*Segment{wide, narrow} {
			if _, err := job.Run(segs); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := job.Run(wide); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	recBytes := uint64(4096) * uint64(unsafe.Sizeof(kvRec{}))
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > recBytes/4 {
		t.Errorf("a warm job allocated %d bytes partitioning %d bytes of records", alloc, recBytes)
	}
}

// TestValueArena: an arena copy is the value's exact bytes, clipped so
// that appending to it cannot reach its neighbour; chunks roll over, a
// value larger than a chunk gets a chunk of its own, and a released
// arena refills the chunks it has instead of allocating.
func TestValueArena(t *testing.T) {
	a := new(valueArena)
	var values, want [][]byte
	add := func(v []byte) {
		want = append(want, v)
		values = append(values, a.copy(v))
	}
	for total := 0; total < 2*(64<<10); total += len(want[len(want)-1]) {
		add(bytes.Repeat([]byte{byte(len(want))}, 1+len(want)%97))
	}
	add(bytes.Repeat([]byte("big"), 64<<10))
	add([]byte("after"))
	for i, v := range values {
		if !bytes.Equal(v, want[i]) {
			t.Fatalf("value %d of %d: the arena's copy differs", i, len(values))
		}
		if cap(v) != len(v) {
			t.Fatalf("value %d: %d spare bytes", i, cap(v)-len(v))
		}
	}
	_ = append(values[0], 0xff) // reallocates: values[1] is untouched
	if !bytes.Equal(values[1], want[1]) {
		t.Fatal("appending to one value wrote into the next")
	}
	chunks := len(a.chunks)
	a.reset()
	for _, v := range want {
		a.copy(v)
	}
	if len(a.chunks) != chunks {
		t.Errorf("refilling a released arena grew it from %d chunks to %d", chunks, len(a.chunks))
	}
}

// TestDecodeRunAllocatesOneDictionary: a decoded run's keys are
// substrings of one string, so a 1 000-key run costs the decoder a
// handful of objects — its dictionary's slice and string — beside the
// table it appends to, not one string per key.
func TestDecodeRunAllocatesOneDictionary(t *testing.T) {
	recs := make([]kvRec, 1000)
	for i := range recs {
		recs[i] = kvRec{key: "key-" + strconv.Itoa(i), mapperID: 3, recordID: int64(i), value: []byte{byte(i)}}
	}
	buf := encodeSegment(recs)
	var table []kvRec
	decode := func() {
		got, mapperID, err := decodeSegment(table[:0], buf)
		if err != nil || mapperID != 3 || len(got) != len(recs) || got[999].key != "key-999" {
			t.Fatalf("decoded %d records of mapper %d (%v), want %d of mapper 3", len(got), mapperID, err, len(recs))
		}
		table = got
	}
	decode()
	if allocs := testing.AllocsPerRun(10, decode); allocs > 4 && !raceEnabled {
		t.Errorf("decoding a run of %d keys allocates %v objects, want at most 4", len(recs), allocs)
	}
}

// TestDerivedMemoOnePerKey: a key's state is made once, by the first of
// however many concurrent touches, every later touch reads it, replacing
// Records drops it, and a segment keeps at most eight keys.
func TestDerivedMemoOnePerKey(t *testing.T) {
	seg := &Segment{Records: [][]byte{[]byte("a"), []byte("b")}}
	var made atomic.Int64
	fresh := func() any { made.Add(1); return new(int) }
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = seg.Derived("q", fresh)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("concurrent touches read %v and %v, want one state", got[0], got[i])
		}
	}
	if made.Load() != 1 {
		t.Fatalf("concurrent touches made %d states, want 1", made.Load())
	}
	slots := len(seg.memo.derived)
	for i := range slots - 1 {
		if seg.Derived(i, fresh) == nil {
			t.Fatalf("key %d of %d found no slot", i+2, slots)
		}
	}
	if v := seg.Derived(slots, fresh); v != nil {
		t.Errorf("a key past the %d slots was kept: %v", slots, v)
	}
	seg.Records = seg.Records[1:]
	if v := seg.Derived("q", fresh); v == got[0] {
		t.Error("after Records were replaced the old state is still read")
	}
}
