package queries

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fresh returns fresh segments over the same records: nothing resident,
// so the next SYMPLE job is each one's first touch.
func fresh(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records}
	}
	return out
}

// mangled returns segs with every 23rd record replaced by a row some
// GroupBy cannot read, cycling through: cut off after the first field,
// an unparsable first field (a decimal or datetime), a fourth field of
// 300 (no 0/1 flag; no known country), a fourth field of x (no flag at
// all), an empty record.
func mangled(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	n := 0
	for i, seg := range segs {
		recs := append([][]byte(nil), seg.Records...)
		for j := 11; j < len(recs); j += 23 {
			fields := bytes.Split(recs[j], []byte{'\t'})
			switch n++; n % 5 {
			case 0:
				fields = fields[:1]
			case 1:
				fields[0] = append([]byte("x"), fields[0]...)
			case 2:
				fields[3] = []byte("300")
			case 3:
				fields[3] = []byte("x")
			case 4:
				fields = nil
			}
			recs[j] = bytes.Join(fields, []byte{'\t'})
		}
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: recs}
	}
	return out
}

// TestUnreadFieldFailsToParse: rows a GroupBy cannot read leave every
// query answering as the sequential reference does — on its first touch
// of the segments, on the second, which keeps their grouped form, and on
// a third, which reads it. The inputs: a bing row whose ok flag reads
// "x", which B1 reads and B3 does not, and every corpus with every 23rd
// row mangled (all 12 queries, a dataset's queries sharing segments).
func TestUnreadFieldFailsToParse(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	okX := fresh(datasets["bing"])
	seg := okX[0]
	seg.Records = slices.Clone(seg.Records)
	const row = 5
	fields := bytes.Split(seg.Records[row], []byte{'\t'})
	fields[3] = []byte("x")
	seg.Records[row] = bytes.Join(fields, []byte{'\t'})

	type input struct {
		name string
		spec *Spec
		segs []*mapreduce.Segment
	}
	inputs := []input{{"ok flag x", ByID("B1"), okX}, {"ok flag x", ByID("B3"), okX}}
	for name, segs := range datasets {
		datasets[name] = mangled(segs)
	}
	for _, spec := range All() {
		inputs = append(inputs, input{"mangled", spec, datasets[spec.Dataset]})
	}
	for _, in := range inputs {
		want, err := in.spec.Sequential(in.segs)
		if err != nil {
			t.Fatalf("%s %s: sequential: %v", in.spec.ID, in.name, err)
		}
		for _, touch := range []string{"first touch", "second touch", "kept form"} {
			got, err := in.spec.Symple(in.segs, mapreduce.Config{NumReducers: 3})
			if err != nil {
				t.Fatalf("%s %s, %s: %v", in.spec.ID, in.name, touch, err)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s %s, %s: digest %016x (%d results), sequential %016x (%d)",
					in.spec.ID, in.name, touch, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
	}
}

// TestConcurrentFirstTouch: every query of a dataset starts at once on
// segments none has grouped yet, so jobs race to each segment's table of
// grouped forms; each must get the golden answer. scripts/verify.sh runs
// this under -race.
func TestConcurrentFirstTouch(t *testing.T) {
	want := readGoldenFile(t)
	datasets := smallDatasets(goldenSegments)
	var wg sync.WaitGroup
	for _, spec := range All() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, err := spec.Symple(datasets[spec.Dataset], mapreduce.Config{NumReducers: 2})
			if err != nil {
				t.Errorf("%s: %v", spec.ID, err)
				return
			}
			if w := want[spec.ID]; run.Digest != w.digest || run.NumResults != w.results {
				t.Errorf("%s: digest %016x (%d results), golden %016x (%d)",
					spec.ID, run.Digest, run.NumResults, w.digest, w.results)
			}
		}()
	}
	wg.Wait()
}

// TestReplacedRecordsAreRegrouped: a segment whose Records were swapped
// for others after two jobs left it a grouped form must answer over the
// new records, on every job after the swap.
func TestReplacedRecordsAreRegrouped(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, id := range []string{"G4", "B3", "T1", "R3"} {
		spec := ByID(id)
		segs := fresh(datasets[spec.Dataset])
		for range 2 {
			if _, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2}); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		for _, seg := range segs {
			seg.Records = seg.Records[len(seg.Records)/3:]
		}
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s: sequential: %v", id, err)
		}
		for _, touch := range []string{"first touch", "second touch", "kept form"} {
			got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
			if err != nil {
				t.Fatalf("%s after replacement, %s: %v", id, touch, err)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s after replacement, %s: digest %016x (%d results), sequential %016x (%d)",
					id, touch, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
	}
}

// mapper is the runner's compiled map side (core.Compiled.Mapper).
func (r *serveRunner[S, E, R]) mapper(trace *obs.Trace) mapreduce.MapFunc {
	return r.c.Mapper(trace)
}

// BenchmarkGroupFirstTouch times pass one of a map task on a segment's
// first touch — the query's GroupBy per record, then the counting sort —
// over a fresh 5 000-row segment at the shapes of the benchmark's
// serve-append fresh segments (a 40 000-record corpus's key
// populations), in ns a row, read off the task's map_parse span.
func BenchmarkGroupFirstTouch(b *testing.B) {
	const rows, n = 5000, 40000
	corpora := map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{Records: rows, Repos: n / 20, Segments: 1, Filler: 820, Seed: 542}),
		"bing": data.GenBing(data.BingConfig{Records: rows, Users: n / 5, Geos: 50, Segments: 1,
			Filler: 100, Seed: 543, Outages: 3}),
		"twitter": data.GenTwitter(data.TwitterConfig{Records: rows, Hashtags: n / 10, Users: n / 4,
			Segments: 1, Filler: 300, Seed: 544}),
		"redshift": data.GenRedshift(data.RedshiftConfig{Records: rows, Advertisers: 100, Segments: 1,
			Filler: 850, Seed: 545, DarkWindows: 3}),
	}
	for _, spec := range All() {
		recs := corpora[spec.Dataset][0].Records
		runner := serve.Lookup(spec.ID).(interface {
			mapper(*obs.Trace) mapreduce.MapFunc
		})
		b.Run(spec.Dataset+"/"+spec.ID, func(b *testing.B) {
			sink := obs.NewMemSink()
			mapper := runner.mapper(obs.NewTrace(sink))
			for i := 0; i < b.N; i++ {
				if err := mapper(0, &mapreduce.Segment{Records: recs}, func(string, int64, []byte) {}); err != nil {
					b.Fatal(err)
				}
			}
			var parse time.Duration
			for _, sp := range sink.Spans() {
				if sp.Kind == obs.KindMapParse {
					parse += sp.Duration()
				}
			}
			b.ReportMetric(float64(parse.Nanoseconds())/float64(b.N*len(recs)), "ns/row")
		})
	}
}

// TestFirstTouchAllocatesPerChunk: what a map task on a segment's first
// touch adds to a warm one — GroupBy per record and the counting sort,
// its keys viewing the records — is allocated per chunk, not per row:
// for G1, B3 and R1 on a warm site, a fresh segment's task allocates at
// most a few objects more than a task reading a kept grouped form of
// the same rows, at 1 000 rows and at 8 000. (The symbolic pass both
// run is the same work either way.)
func TestFirstTouchAllocatesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const rows, extra = 8000, 8
	corpora := map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{Records: rows, Repos: 2000, Segments: 1, Filler: 40, Seed: 546}),
		"bing": data.GenBing(data.BingConfig{Records: rows, Users: 4000, Geos: 50, Segments: 1,
			Filler: 40, Seed: 547, Outages: 3}),
		"redshift": data.GenRedshift(data.RedshiftConfig{Records: rows, Advertisers: 100, Segments: 1,
			Filler: 40, Seed: 548, DarkWindows: 3}),
	}
	for _, id := range []string{"G1", "B3", "R1"} {
		spec := ByID(id)
		mapper := serve.Lookup(id).(interface {
			mapper(*obs.Trace) mapreduce.MapFunc
		}).mapper(nil)
		task := func(seg *mapreduce.Segment) {
			if err := mapper(0, seg, func(string, int64, []byte) {}); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []int{rows / 8, rows} {
			recs := corpora[spec.Dataset][0].Records[:n]
			// Every run of the first is a fresh segment's first touch;
			// the second's runs read the form the kept segment holds.
			first := testing.AllocsPerRun(4, func() { task(&mapreduce.Segment{Records: recs}) })
			kept := &mapreduce.Segment{Records: recs}
			task(kept)
			task(kept)
			warm := testing.AllocsPerRun(4, func() { task(kept) })
			if first > warm+extra {
				t.Errorf("%s, %d rows: a first touch allocates %v objects, a warm task %v: want at most %d more",
					id, n, first, warm, extra)
			}
		}
	}
}
