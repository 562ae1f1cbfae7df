package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ p, want float64 }{
		{0.5, 30}, {0.9, 50}, {0.2, 10}, {0.21, 20}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (rank ceil(0.9*10))", got)
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// The median round wall does not move when one round stalls, which
	// is why records_per_s divides by it and not by elapsed time.
	if got := median([]float64{1.0, 1.1, 0.9, 1.0, 9.0}); got != 1.0 {
		t.Errorf("median round wall with a stall = %v, want 1.0", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// the spread the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{7, 1, 5, 3, 9, 11})
	if q1 != 2.5 || q3 != 9.5 {
		t.Errorf("quartiles = %v, %v; Python gives 2.5, 9.5", q1, q3)
	}
}

// A round's cost is the sum of its jobs' on both clocks, and the share
// the host withheld is stolen time over the time the process was ready
// to run.
func TestSpentAddsUpAndReportsSteal(t *testing.T) {
	const ms = time.Millisecond
	var s spent
	s.add(spent{cpu: 30 * ms, wall: 45 * ms, stolen: 10 * ms})
	s.add(spent{cpu: 60 * ms, wall: 80 * ms, stolen: 20 * ms})
	if want := (spent{cpu: 90 * ms, wall: 125 * ms, stolen: 30 * ms}); s != want {
		t.Errorf("sum %+v, want %+v", s, want)
	}
	if got := s.stolenPct(); got != 25 {
		t.Errorf("stolenPct = %v, want 25", got)
	}
	if got := (spent{cpu: 5 * ms}).stolenPct(); got != 0 {
		t.Errorf("stolenPct with no steal counter = %v, want 0", got)
	}
	// The CPU clock advances with work done in this process and stands
	// still while it sleeps.
	c0 := now()
	time.Sleep(20 * ms)
	if d := now().since(c0); d.wall < 20*ms || d.cpu > 10*ms {
		t.Errorf("asleep for %v, the CPU clock moved by %v", d.wall, d.cpu)
	}
}

// The yardstick is the same work in every process, checks its own
// result and allocates nothing, so that neither the seed nor the
// program's heap can move it.
func TestYardstickIsFixedWork(t *testing.T) {
	y := newYardstick()
	if other := newYardstick(); other.want != y.want {
		t.Errorf("two yardsticks compute different digests: %016x and %016x", y.want, other.want)
	}
	if n := len(y.used); n < yardKeys/2 || n > yardSlots/2 {
		t.Errorf("%d groups: want most of the %d keys, in a table under half full", n, yardKeys)
	}
	if d, err := y.tick(); err != nil || d <= 0 {
		t.Errorf("tick = %v, %v", d, err)
	}
	if n := testing.AllocsPerRun(3, func() { y.work() }); n != 0 {
		t.Errorf("the yardstick allocates %v times a pass", n)
	}
	y.recs[0] = []byte("key00000\t1\t1\t")
	if _, err := y.tick(); err == nil {
		t.Error("a tick over changed records passed its own check")
	}
}

func TestTimesAreScaledByTheTickBesideThem(t *testing.T) {
	const us = time.Microsecond
	if got := typical([]time.Duration{1300 * us, 9000 * us, 1250 * us}); got != 1300*us {
		t.Errorf("typical of three ticks, one of them interrupted = %v, want 1300us", got)
	}
	if got := typical([]time.Duration{4 * us, 1 * us, 3 * us, 2 * us}); got != 2500*time.Nanosecond {
		t.Errorf("typical of an even number of ticks = %v, want 2.5us", got)
	}
	if got := against(80*time.Millisecond, yardNominal); got != 80*time.Millisecond {
		t.Errorf("at the nominal speed 80ms reads %v", got)
	}
	// A host running everything at half speed doubles both the job's CPU
	// time and the tick: the reported time does not move.
	if got := against(160*time.Millisecond, 2*yardNominal); got != 80*time.Millisecond {
		t.Errorf("at half speed 160ms reads %v, want 80ms", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped at both ends", []interval{{50, 110}, {190, 300}}, 80},
		{"outside", []interval{{0, 100}, {200, 250}}, 100},
		{"covering", []interval{{0, 300}}, 0},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// With an odd number of equally weighted classes the sorted job walls
// split into equal blocks, one per class when the classes separate.
// The p50 and p90 ranks must fall strictly inside one block, never on
// its first or last sample, for every round count a run can end with.
func TestPercentileRanksFallInsideOneClass(t *testing.T) {
	for _, w := range workloads {
		k := len(w.classes)
		if k%2 == 0 {
			t.Fatalf("%s has an even number of classes", w.name)
		}
		for rounds := 10; rounds <= 500; rounds++ {
			n := k * rounds
			for _, p := range []float64{0.5, 0.9} {
				r := percentileRank(n, p)
				block, pos := (r-1)/rounds, (r-1)%rounds
				if pos == 0 || pos == rounds-1 {
					t.Fatalf("%s, %d rounds: p%.0f rank %d is the edge of class block %d",
						w.name, rounds, 100*p, r, block)
				}
				if want := map[float64]int{0.5: k / 2, 0.9: k - 1}[p]; block != want {
					t.Fatalf("%s, %d rounds: p%.0f rank %d in block %d, want %d",
						w.name, rounds, 100*p, r, block, want)
				}
			}
		}
	}
}

func TestVariantsDifferOnlyInFiller(t *testing.T) {
	segs, err := genCorpus("bing", smokeRecords, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := variant(segs[0], 1), variant(segs[0], 17)
	if bytes.Equal(a.Records[0], b.Records[0]) {
		t.Error("two variants have the same content")
	}
	filler := bytes.LastIndexByte(segs[0].Records[0], '\t')
	if !bytes.Equal(a.Records[0][:filler], segs[0].Records[0][:filler]) {
		t.Error("a variant changed a field before the filler")
	}
	if len(a.Records) != len(segs[0].Records) || &a.Records[1][0] != &segs[0].Records[1][0] {
		t.Error("a variant should share every record but the first")
	}
}

func TestSpanLedger(t *testing.T) {
	const msNs = int64(1e6)
	span := func(id, parent int64, kind, name string, start, end int64) *obs.Span {
		return &obs.Span{ID: id, Parent: parent, Kind: kind, Name: name, Start: start * msNs, End: end * msNs}
	}
	spans := []*obs.Span{
		span(1, 0, kindBenchAddDataset, "github", 0, 4), // set-up: before the window
		span(2, 0, obs.KindJob, "serve/G1/github", 5, 9),
		// One timed job, 100..200 on the client, 110..190 on the service.
		span(3, 0, kindBenchJob, "G1", 100, 200),
		span(4, 0, obs.KindJob, "serve/G1/github", 110, 190),
		span(5, 4, obs.KindQueue, "bench", 110, 112),
		span(6, 4, obs.KindJob, "serve-map/G1", 130, 160), // cold engine run
		span(7, 6, obs.KindMapAttempt, "map-0", 132, 150),
		span(8, 6, obs.KindMapAttempt, "map-1", 140, 155),
		span(9, 4, obs.KindFold, "G1", 160, 180),
		span(10, 0, kindBenchAppend, "github", 99, 100),
	}
	got := spanLedger(spans, 50*msNs, 1, 3)
	for name, want := range map[string]float64{
		"serve.add_dataset_ms":          12, // 4 ms a call, three classes
		"serve.append_ms":               1,
		"serve.queue_wait_ms":           2,
		"serve.fold_busy_ms":            20,
		"serve.engine_ms":               30,
		"serve.other_ms":                28, // 80 - 2 - 30 - 20
		"cluster.frame_rtt_ms":          20, // 100 - 80
		"mapreduce.map_attempt_busy_ms": 33,
		"mapreduce.map_phase_ms":        23, // 132..155
		"mapreduce.reduce_tail_ms":      5,  // 155..160
		"job.unattributed_pct":          55, // covered: 110-112, 132-155, 160-180
		"obs.spans":                     6,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// BENCHMARK.json repeats the metric names and units the program
// prints and the workloads it runs; the driver refuses a run whose
// metrics differ from the file's.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var file struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{filepath.Dir(outDir)}) {
		t.Errorf("paths %v, the program writes under %s", file.Paths, outDir)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if got := workloadByName(w.Name); got == nil || got.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json and workload.go disagree", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program has %d", names, len(workloads))
	}
	for _, c := range []struct {
		what string
		file []m
		prog []def
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		var want []m
		for _, d := range c.prog {
			want = append(want, m{d.name, d.unit})
		}
		if !reflect.DeepEqual(c.file, want) {
			t.Errorf("%s: BENCHMARK.json has %v, the program prints %v", c.what, c.file, want)
		}
	}
}

// TestSmoke runs every workload in both modes on 2000-record inputs,
// so that a change to the public API of serve, queries, mapreduce, obs
// or data that the benchmark calls breaks the build or this test, not
// the baseline. Every job in it is digest-checked.
func TestSmoke(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var out bytes.Buffer
	if err := smoke(&out, names, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2*len(workloads) {
		t.Fatalf("%d result lines, want one per workload and mode", len(lines))
	}
	for i, line := range lines {
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("line %d: correct=%v attempted=%d failed=%d", i, res.Correct, res.Attempted, res.Failed)
		}
		defs, w := endToEnd, workloads[i/2]
		if i%2 == 1 {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("line %d: %d metrics, want %d", i, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
				t.Errorf("line %d: metric %s missing or in the wrong unit", i, d.name)
			}
		}
		if i%2 == 0 {
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: %s is not positive", w.name, d.name)
				}
			}
			continue
		}
		// The ledger must show the workload's defining provenance.
		k := float64(len(w.classes))
		var wantHits, wantMapped float64
		if w.kind != batchPath {
			wantHits = k * segments
		}
		if w.kind == serveAppend {
			wantMapped = k
		}
		if got := res.Metrics["serve.cache_hits"].Value; got != wantHits {
			t.Errorf("%s: serve.cache_hits %v per round, want %v", w.name, got, wantHits)
		}
		if got := res.Metrics["serve.mapped_segments"].Value; got != wantMapped {
			t.Errorf("%s: serve.mapped_segments %v per round, want %v", w.name, got, wantMapped)
		}
		if w.kind == serveWarm && res.Metrics["serve.engine_ms"].Value != 0 {
			t.Errorf("%s: a warm job ran the engine", w.name)
		}
		if (w.kind == batchPath) != (res.Metrics["mapreduce.shuffle_bytes"].Value > 0) {
			t.Errorf("%s: mapreduce.shuffle_bytes = %v", w.name, res.Metrics["mapreduce.shuffle_bytes"].Value)
		}
	}
}

// genCorpus repeats internal/bench.GenDatasets' parameter table so that
// it can offset the seeds; without an offset the two must generate the
// same bytes.
func TestGenCorpusMatchesGenDatasets(t *testing.T) {
	ds := bench.GenDatasets(bench.Scale{Records: smokeRecords, Segments: segments})
	for _, dataset := range []string{"github", "bing", "twitter", "redshift"} {
		want, err := ds.For(dataset, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := genCorpus(dataset, smokeRecords, smokeRecords, segments, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: genCorpus and bench.GenDatasets generate different corpora", dataset)
		}
	}
}

// A job that fails is counted, the run goes on to its result line, and
// the result makes the command fail.
func TestFailedJobsAreCountedAndReported(t *testing.T) {
	w := workloadByName("batch-dense")
	in, err := generate(w, true, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.Want["T1"]++ // every T1 job now has the wrong digest
	res, err := execute(runConfig{w: w, in: in, minRounds: 2, setups: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	// One warm-up and two timed jobs per class.
	if res.Correct || res.Attempted != 9 || res.Failed != 3 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false, 9, 3", res.Correct, res.Attempted, res.Failed)
	}
	if err := printResult(io.Discard, res); err == nil {
		t.Error("a result with failed jobs did not fail the command")
	}
}
