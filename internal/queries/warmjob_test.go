package queries

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
)

// warmJob readies a job's two halves over recs on warm sites and
// returns them as closures: task runs one map task over all of recs, a
// memo hit on the segment's kept grouped form once it has run twice, and
// fold folds every key's group — the bundles of map tasks over recs in
// segments of per rows, in segment order — on one fold site the way a
// reduce task does: Reset, one Fold of the group, Result, and the key's
// result line. fold returns the key count.
func (r *serveRunner[S, E, R]) warmJob(t *testing.T, recs [][]byte, per int) (task func(), fold func() int) {
	mapper := r.c.Mapper(nil)
	whole := &mapreduce.Segment{Records: recs}
	task = func() {
		if err := mapper(0, whole, discard); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	groups := map[string][][]byte{}
	collect := func(key string, bundle []byte) {
		if groups[key] == nil {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], slices.Clone(bundle))
	}
	for i := 0; i*per < len(recs); i++ {
		seg := &mapreduce.Segment{Records: recs[i*per : min((i+1)*per, len(recs))]}
		if err := mapper(i, seg, collect); err != nil {
			t.Fatal(err)
		}
	}
	site := sym.NewFolder(r.c.Schema())
	st := site.NewState()
	var line string // the last key's, kept as a job's sink keeps it
	fold = func() int {
		for _, key := range keys {
			site.Reset(st)
			if err := site.Fold(st, st, groups[key]...); err != nil {
				t.Fatal(err)
			}
			line = r.format(key, r.q.Result(key, st.State()))
		}
		_ = line
		return len(keys)
	}
	return task, fold
}

func discard(string, []byte) {}

// TestWarmJobAllocatesPerKey: on warm sites a job allocates per key, not
// per row. Over the same keys at 1 000 and at 8 000 rows — eight times
// the events per key, so eight times the vector pushes and runs eight
// times as long — a map task that hits its segment's kept grouped form,
// and a reduce fold of every key's group, eight times as many bundles
// (one per 500-row map task), on one fold site, each key's result line
// formatted, allocate at most a few objects more at the larger size, for
// all 12 queries. Key populations
// are small enough that both sizes touch every key.
func TestWarmJobAllocatesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows, per, extra = 8000, 500, 8
	corpora := map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{Records: rows, Repos: 16, Segments: 1, Filler: 40, Seed: 561}),
		"bing": data.GenBing(data.BingConfig{Records: rows, Users: 16, Geos: 8, Segments: 1,
			Filler: 40, Seed: 562, Outages: 3}),
		"twitter": data.GenTwitter(data.TwitterConfig{Records: rows, Hashtags: 16, Users: 16,
			Segments: 1, Filler: 40, Seed: 563}),
		"redshift": data.GenRedshift(data.RedshiftConfig{Records: rows, Advertisers: 16, Segments: 1,
			Filler: 40, Seed: 564, DarkWindows: 3}),
	}
	for _, spec := range All() {
		runner := serve.Lookup(spec.ID).(interface {
			warmJob(*testing.T, [][]byte, int) (func(), func() int)
		})
		var taskAllocs, foldAllocs [2]float64
		var keys [2]int
		for i, n := range []int{rows / 8, rows} {
			task, fold := runner.warmJob(t, corpora[spec.Dataset][0].Records[:n], per)
			task() // the second touch keeps the segment's grouped form
			task()
			keys[i] = fold()
			taskAllocs[i] = testing.AllocsPerRun(4, task)
			foldAllocs[i] = testing.AllocsPerRun(4, func() { fold() })
		}
		if keys[0] != keys[1] {
			t.Fatalf("%s: %d keys at %d rows, %d at %d: the sizes must share a key set",
				spec.ID, keys[0], rows/8, keys[1], rows)
		}
		if taskAllocs[1] > taskAllocs[0]+extra {
			t.Errorf("%s: a warm map task over %d keys allocates %v objects at %d rows, %v at %d: want at most %d more",
				spec.ID, keys[0], taskAllocs[0], rows/8, taskAllocs[1], rows, extra)
		}
		if foldAllocs[1] > foldAllocs[0]+extra {
			t.Errorf("%s: a warm fold of %d keys allocates %v objects at %d rows, %v at %d: want at most %d more",
				spec.ID, keys[0], foldAllocs[0], rows/8, foldAllocs[1], rows, extra)
		}
	}
}

// BenchmarkBatchClasses times a warm job of each class of the
// repository benchmark's batch workloads — batch-wide's R1, G1 and R3
// over 100 000 records, batch-dense's B1, T1 and B3 over 60 000 — in
// process, over corpora generated with the benchmark's parameters at its
// default seed (benchmark/workload.go: eight segments, four reducers),
// after two jobs that leave each segment's grouped form kept. It reports
// records/s and allocations per job; at -cpu 1,2 it is a one- and a
// two-core reading per class. One corpus is held at a time.
func BenchmarkBatchClasses(b *testing.B) {
	const segs, seed = 8, 1000
	gen := func(dataset string, n int) []*mapreduce.Segment {
		switch dataset {
		case "github":
			return data.GenGithub(data.GithubConfig{Records: n, Repos: n / 20, Segments: segs, Filler: 820, Seed: 42 + seed})
		case "bing":
			return data.GenBing(data.BingConfig{Records: n, Users: n / 5, Geos: 50, Segments: segs,
				Filler: 100, Seed: 43 + seed, Outages: max(n/15000, 3)})
		case "twitter":
			return data.GenTwitter(data.TwitterConfig{Records: n, Hashtags: n / 10, Users: n / 4,
				Segments: segs, Filler: 300, Seed: 44 + seed})
		}
		return data.GenRedshift(data.RedshiftConfig{Records: n, Advertisers: 100, Segments: segs,
			Filler: 850, Seed: 45 + seed, DarkWindows: 3})
	}
	var corpus []*mapreduce.Segment
	held := ""
	for _, c := range []struct {
		id      string
		records int
	}{{"R1", 100000}, {"R3", 100000}, {"G1", 100000}, {"B1", 60000}, {"B3", 60000}, {"T1", 60000}} {
		spec := ByID(c.id)
		if held != spec.Dataset {
			corpus = nil
			runtime.GC()
			corpus, held = gen(spec.Dataset, c.records), spec.Dataset
		}
		b.Run(c.id, func(b *testing.B) {
			conf := mapreduce.Config{NumReducers: 4}
			job := func() {
				if _, err := spec.Symple(corpus, conf); err != nil {
					b.Fatal(err)
				}
			}
			job()
			job()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(c.records*b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/job")
		})
	}
}
