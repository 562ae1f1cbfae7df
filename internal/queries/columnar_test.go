package queries

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// datasetPlans names each corpus's index plan, for tests that look at
// the index a job left resident.
var datasetPlans = map[string]*mapreduce.ColPlan{
	"github": githubPlan, "bing": bingPlan, "twitter": twitterPlan, "redshift": redshiftPlan,
}

// everyField reads every field of a dataset's plan.
func everyField(dataset string) mapreduce.ColRead {
	plan := datasetPlans[dataset]
	r := plan.Read()
	for f := range plan.Fields {
		r.Fields |= 1 << f
	}
	return r
}

// unindexed returns fresh segments over the same records: nothing
// resident, so the next SYMPLE job is each one's first touch.
func unindexed(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records}
	}
	return out
}

// scalarOnly returns fresh segments already resident under a plan that
// is none of the queries': every job over them groups with the scalar
// GroupBy, the path a foreign plan takes.
func scalarOnly(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := unindexed(segs)
	for _, seg := range out {
		seg.Index(mapreduce.ColRead{Plan: &mapreduce.ColPlan{}}, nil)
	}
	return out
}

// TestIndexedMatchesScalarStats pins the work accounting of the two
// grouping forms on every query, on the job that builds its columns and
// on the one that finds them resident: vectorized GroupBy over the index
// keeps exactly the records the scalar GroupBy keeps (the index moves
// parse work, it must never change how many records execute), and run
// probes occur where event columns actually repeat.
func TestIndexedMatchesScalarStats(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, spec := range All() {
		id := spec.ID
		scalar, err := spec.Symple(scalarOnly(datasets[spec.Dataset]), mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s scalar: %v", id, err)
		}
		segs := unindexed(datasets[spec.Dataset])
		for _, touch := range []string{"first touch", "resident"} {
			batch, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
			if err != nil {
				t.Fatalf("%s %s: %v", id, touch, err)
			}
			if batch.Sym.Records != scalar.Sym.Records {
				t.Errorf("%s %s: executed %d records over the index, %d over rows", id, touch, batch.Sym.Records, scalar.Sym.Records)
			}
			if id == "R1" && batch.Sym.RunProbes == 0 {
				t.Errorf("%s %s: no run probes — unit events must form runs", id, touch)
			}
			if batch.Digest != scalar.Digest {
				t.Errorf("%s %s: digests diverge: indexed %016x scalar %016x", id, touch, batch.Digest, scalar.Digest)
			}
		}
	}
}

// mangled returns segs with every 23rd record replaced by a row some
// column cannot type, cycling through: cut off after the first field, an
// unparsable first field (the int or datetime column), a fourth field
// of 300 (outside a flag's byte; no known country), a fourth field of x
// (no flag at all), an empty record.
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

// TestRaggedRowsFallBackPerRow: rows a query's columns cannot type go
// through the scalar GroupBy in place, between the dense rows around
// them, so every query still answers exactly as the sequential reference
// does — on the job that builds its columns and on the one that finds
// them resident.
func TestRaggedRowsFallBackPerRow(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for name, segs := range datasets {
		datasets[name] = mangled(segs)
	}
	for _, spec := range All() {
		segs := unindexed(datasets[spec.Dataset])
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s: sequential: %v", spec.ID, err)
		}
		for _, touch := range []string{"first touch", "resident"} {
			got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
			if err != nil {
				t.Fatalf("%s %s: %v", spec.ID, touch, err)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s %s: digest %016x (%d results), sequential %016x (%d)",
					spec.ID, touch, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
	}
	for name, segs := range datasets {
		c := segs[0].Index(everyField(name), nil)
		if c == nil || len(c.Ragged) == 0 || len(c.Ragged) == len(c.Records) {
			t.Errorf("%s: the corpus did not exercise both row kinds: %+v", name, c)
		}
	}
}

// firstTouch runs spec over segs with a trace and returns the fields
// each index span built, one entry per span.
func firstTouch(t *testing.T, spec *Spec, segs []*mapreduce.Segment) []string {
	t.Helper()
	sink := obs.NewMemSink()
	if _, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2, Trace: obs.NewTrace(sink)}); err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var built []string
	for _, sp := range sink.Spans() {
		if sp.Kind == obs.KindIndex {
			built = append(built, sp.Name)
		}
	}
	return built
}

// TestFirstTouchBuildsWhatTheQueryReads: a query's first touch of a
// segment builds the columns its scalar GroupBy's fields become and no
// other — B3 ts and user, B1 ts and ok, R1 the advertiser, G1 no ts — and
// a later query over the same segments builds only what it adds.
func TestFirstTouchBuildsWhatTheQueryReads(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for id, want := range map[string]string{
		"G1": "1,2", "G2": "1,2", "G3": "1,2", "G4": "0,1,2",
		"B1": "0,3", "B2": "0,2,3", "B3": "0,1", "T1": "1,3",
		"R1": "1", "R2": "1,3", "R3": "0,1", "R4": "1,2",
	} {
		spec := ByID(id)
		segs := unindexed(datasets[spec.Dataset])
		built := firstTouch(t, spec, segs)
		if len(built) != len(segs) {
			t.Errorf("%s: %d index spans over %d segments", id, len(built), len(segs))
		}
		for _, b := range built {
			if b != want {
				t.Errorf("%s: first touch built fields %s, want %s", id, b, want)
			}
		}
	}
	segs := unindexed(datasets["bing"])
	for _, step := range []struct{ id, want string }{{"B1", "0,3"}, {"B3", "1"}, {"B1", ""}, {"B2", "2"}, {"B3", ""}} {
		built := firstTouch(t, ByID(step.id), segs)
		if got := strings.Join(slices.Compact(built), " "); got != step.want {
			t.Errorf("%s after the jobs before it built %q, want %q", step.id, got, step.want)
		}
	}
}

// TestUnreadFieldFailsToParse: a bing row whose ok flag reads "x" is
// ragged for B1, which reads ok, and dense for B3, which does not, and
// both answer as the sequential reference does.
func TestUnreadFieldFailsToParse(t *testing.T) {
	segs := unindexed(smallDatasets(goldenSegments)["bing"])
	seg := segs[0]
	seg.Records = slices.Clone(seg.Records)
	const row = 5
	fields := bytes.Split(seg.Records[row], []byte{'\t'})
	fields[3] = []byte("x")
	seg.Records[row] = bytes.Join(fields, []byte{'\t'})
	for _, id := range []string{"B1", "B3"} {
		spec := ByID(id)
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != want.Digest || got.NumResults != want.NumResults {
			t.Errorf("%s: digest %016x (%d results), sequential %016x (%d)",
				id, got.Digest, got.NumResults, want.Digest, want.NumResults)
		}
	}
	if c := seg.Index(bingPlan.Read(0, 3), nil); !slices.Contains(c.Ragged, row) {
		t.Errorf("B1's view does not leave row %d ragged: %v", row, c.Ragged)
	}
	if c := seg.Index(bingPlan.Read(0, 1), nil); slices.Contains(c.Ragged, row) {
		t.Errorf("B3's view leaves row %d ragged though it reads no flag", row)
	}
}

// TestConcurrentFirstTouch: every query of a dataset starts at once on
// segments none has indexed yet, so jobs race to each segment's first
// touch; each must get the golden answer. scripts/verify.sh runs this
// under -race.
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

// TestReplacedRecordsAreReindexed: a segment whose Records were swapped
// for others after a job indexed it must answer over the new records.
func TestReplacedRecordsAreReindexed(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, id := range []string{"G4", "B3", "T1", "R3"} {
		spec := ByID(id)
		segs := unindexed(datasets[spec.Dataset])
		if _, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, seg := range segs {
			seg.Records = seg.Records[len(seg.Records)/3:]
		}
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s: sequential: %v", id, err)
		}
		got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s after replacement: %v", id, err)
		}
		if got.Digest != want.Digest || got.NumResults != want.NumResults {
			t.Errorf("%s: digest %016x (%d results) over a stale index, sequential %016x (%d)",
				id, got.Digest, got.NumResults, want.Digest, want.NumResults)
		}
	}
}

// indexBytes is the memory an index holds beyond the records it aliases.
func indexBytes(c *mapreduce.Columnar) int {
	n := 4 * cap(c.Ragged)
	for i := range c.Cols {
		col := &c.Cols[i]
		n += 8*cap(col.Ints) + cap(col.Bytes) + 4*cap(col.Codes) + 16*cap(col.Dict) + 4*cap(col.Ragged)
	}
	return n
}

// TestIndexMemoryBudget holds the resident index to its budget on the
// corpora of the benchmark's batch-dense workload (whose peak RSS is the
// metric an index could hurt): at most 26 bytes per row averaged over
// the two, every row dense. The other two corpora are logged beside
// them; EXPERIMENTS.md records the table.
func TestIndexMemoryBudget(t *testing.T) {
	const n, segments = 60000, 8
	corpora := []struct {
		name     string
		segs     []*mapreduce.Segment
		budgeted bool
	}{
		{"bing", data.GenBing(data.BingConfig{Records: n, Users: n / 5, Geos: 50,
			Segments: segments, Filler: 100, Seed: 43, Outages: 4}), true},
		{"twitter", data.GenTwitter(data.TwitterConfig{Records: n, Hashtags: n / 10,
			Users: n / 4, Segments: segments, Filler: 300, Seed: 44}), true},
		{"github", data.GenGithub(data.GithubConfig{Records: n, Repos: n / 20,
			Segments: segments, Filler: 820, Seed: 42}), false},
		{"redshift", data.GenRedshift(data.RedshiftConfig{Records: n, Advertisers: 100,
			Segments: segments, Filler: 850, Seed: 45, DarkWindows: 3}), false},
	}
	var budgetBytes, budgetRows int
	for _, c := range corpora {
		var bytes, rows int
		for _, seg := range c.segs {
			idx := seg.Index(everyField(c.name), nil)
			if len(idx.Ragged) != 0 {
				t.Errorf("%s segment %d: %d generator rows are ragged — the plan does not fit the schema",
					c.name, seg.ID, len(idx.Ragged))
			}
			bytes += indexBytes(idx)
			rows += len(idx.Records)
		}
		t.Logf("%-8s %6d rows  %5.1f index bytes/row", c.name, rows, float64(bytes)/float64(rows))
		if c.budgeted {
			budgetBytes += bytes
			budgetRows += rows
		}
	}
	if perRow := float64(budgetBytes) / float64(budgetRows); perRow > 26 {
		t.Errorf("batch-dense corpora: %.1f index bytes/row, budget 26", perRow)
	}
}

// BenchmarkIndexFirstTouch times a segment's first touch: typing the
// columns of one read over a fresh 5 000-row segment at the shapes of the
// benchmark's serve-append fresh segments (a 40 000-record corpus's key
// populations), in ns a row. "all" types every field of the dataset's
// plan; the named queries type what they read.
func BenchmarkIndexFirstTouch(b *testing.B) {
	const rows, n = 5000, 40000
	fresh := map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{Records: rows, Repos: n / 20, Segments: 1, Filler: 820, Seed: 542}),
		"bing": data.GenBing(data.BingConfig{Records: rows, Users: n / 5, Geos: 50, Segments: 1,
			Filler: 100, Seed: 543, Outages: 3}),
		"twitter": data.GenTwitter(data.TwitterConfig{Records: rows, Hashtags: n / 10, Users: n / 4,
			Segments: 1, Filler: 300, Seed: 544}),
		"redshift": data.GenRedshift(data.RedshiftConfig{Records: rows, Advertisers: 100, Segments: 1,
			Filler: 850, Seed: 545, DarkWindows: 3}),
	}
	for _, c := range []struct {
		name, dataset string
		read          mapreduce.ColRead
	}{
		{"github/all", "github", everyField("github")}, {"github/G1", "github", githubPlan.Read(1, 2)},
		{"bing/all", "bing", everyField("bing")}, {"bing/B3", "bing", bingPlan.Read(0, 1)},
		{"bing/B1", "bing", bingPlan.Read(0, 3)},
		{"twitter/all", "twitter", everyField("twitter")},
		{"redshift/all", "redshift", everyField("redshift")}, {"redshift/R1", "redshift", redshiftPlan.Read(1)},
	} {
		recs := fresh[c.dataset][0].Records
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				(&mapreduce.Segment{Records: recs}).Index(c.read, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/row")
		})
	}
}
