package queries

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
)

// datasetPlans names each corpus's index plan, for tests that look at
// the index a job left resident.
var datasetPlans = map[string]*mapreduce.ColPlan{
	"github": githubPlan, "bing": bingPlan, "twitter": twitterPlan, "redshift": redshiftPlan,
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
		seg.Index(&mapreduce.ColPlan{})
	}
	return out
}

// TestIndexedMatchesScalarStats pins the work accounting of the two
// grouping forms on one query per symbolic regime: vectorized GroupBy
// over the index keeps exactly the records the scalar GroupBy keeps (the
// index moves parse work, it must never change how many records
// execute), and run probes occur where event columns actually repeat.
func TestIndexedMatchesScalarStats(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for _, id := range []string{"G1", "B2", "R1"} {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		scalar, err := spec.Symple(scalarOnly(segs), mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s scalar: %v", id, err)
		}
		batch, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s indexed: %v", id, err)
		}
		if batch.Sym.Records != scalar.Sym.Records {
			t.Errorf("%s: executed %d records over the index, %d over rows", id, batch.Sym.Records, scalar.Sym.Records)
		}
		if id == "R1" && batch.Sym.RunProbes == 0 {
			t.Errorf("%s: no run probes — unit events must form runs", id)
		}
		if batch.Digest != scalar.Digest {
			t.Errorf("%s: digests diverge: indexed %016x scalar %016x", id, batch.Digest, scalar.Digest)
		}
	}
}

// mangled returns segs with every 23rd record replaced by a row the
// index cannot type, cycling through: cut off after the first field, an
// unparsable first field (the int or datetime column), a fourth field
// of 300 (outside a flag's byte; no known country), an empty record.
func mangled(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	n := 0
	for i, seg := range segs {
		recs := append([][]byte(nil), seg.Records...)
		for j := 11; j < len(recs); j += 23 {
			fields := bytes.Split(recs[j], []byte{'\t'})
			switch n++; n % 4 {
			case 0:
				fields = fields[:1]
			case 1:
				fields[0] = append([]byte("x"), fields[0]...)
			case 2:
				fields[3] = []byte("300")
			case 3:
				fields = nil
			}
			recs[j] = bytes.Join(fields, []byte{'\t'})
		}
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: recs}
	}
	return out
}

// TestRaggedRowsFallBackPerRow: rows the plan cannot type go through the
// scalar GroupBy in place, between the dense rows around them, so every
// query still answers exactly as the sequential reference does — on the
// job that builds the index and on the one that finds it resident.
func TestRaggedRowsFallBackPerRow(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	for name, segs := range datasets {
		datasets[name] = mangled(segs)
	}
	for _, spec := range All() {
		segs := datasets[spec.Dataset]
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
		c := segs[0].Index(datasetPlans[name])
		if c == nil || len(c.Ragged) == 0 || c.Dense() == 0 {
			t.Errorf("%s: the corpus did not exercise both row kinds: %+v", name, c)
		}
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
	n := 4*cap(c.Ragged) + 24*cap(c.RaggedRecs)
	for i := range c.Cols {
		col := &c.Cols[i]
		n += 8*cap(col.Ints) + cap(col.Bytes) + 4*cap(col.Codes) + 16*cap(col.Dict)
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
			idx := seg.Index(datasetPlans[c.name])
			if len(idx.Ragged) != 0 {
				t.Errorf("%s segment %d: %d generator rows are ragged — the plan does not fit the schema",
					c.name, seg.ID, len(idx.Ragged))
			}
			bytes += indexBytes(idx)
			rows += idx.Rows
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
