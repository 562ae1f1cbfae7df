package queries

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

func TestDigestProperties(t *testing.T) {
	format := func(key string, v int64) string {
		if v == 0 {
			return ""
		}
		return key
	}
	// Order-insensitive: maps iterate randomly, digest must not care.
	a := map[string]int64{"x": 1, "y": 2, "z": 3}
	d1, n1 := digestResults(a, format)
	d2, n2 := digestResults(a, format)
	if d1 != d2 || n1 != n2 || n1 != 3 {
		t.Fatalf("digest unstable: %x/%d vs %x/%d", d1, n1, d2, n2)
	}
	// Filtered entries don't contribute.
	b := map[string]int64{"x": 1, "y": 2, "z": 3, "w": 0}
	d3, n3 := digestResults(b, format)
	if d3 != d1 || n3 != 3 {
		t.Fatalf("filtered entry changed digest")
	}
	// Different content, different digest.
	c := map[string]int64{"x": 1, "y": 2, "q": 3}
	d4, _ := digestResults(c, format)
	if d4 == d1 {
		t.Fatal("distinct results collide")
	}
}

func TestResultLine(t *testing.T) {
	if got := resultLine("k"); got != "" {
		t.Errorf("no values: %q, want no line", got)
	}
	if got := resultLine("k", 1); got != "k:1" {
		t.Errorf("single: %q", got)
	}
	if got := resultLine("repo/a", -1, 0, 7); got != "repo/a:-1,0,7" {
		t.Errorf("multi: %q", got)
	}
	// A 100-value line of the widest values is still whole.
	long := make([]int64, 100)
	for i := range long {
		long[i] = math.MinInt64
	}
	want := "k:" + strings.TrimSuffix(strings.Repeat("-9223372036854775808,", 100), ",")
	if got := resultLine("k", long...); got != want {
		t.Errorf("long line: %d bytes, want %d", len(got), len(want))
	}
	for _, vs := range [][]int64{{12, 345, 6789}, long} {
		if n := testing.AllocsPerRun(100, func() { resultLine("repo/alpha", vs...) }); n != 1 {
			t.Errorf("%d values: %v allocations per line, want 1 (the string)", len(vs), n)
		}
	}
}

func TestSympleWithOptionsRestoresDefaults(t *testing.T) {
	spec := ByID("G1")
	segs := data.GenGithub(data.GithubConfig{Records: 500, Repos: 20, Segments: 2, Seed: 33})
	conf := mapreduce.Config{NumReducers: 1}
	base, err := spec.Symple(segs, conf)
	if err != nil {
		t.Fatal(err)
	}
	// A run with forced restarts...
	tight := sym.Options{MaxLivePaths: 1, DisableMerging: true}
	forced, err := spec.SympleWithOptions(segs, conf, tight)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Digest != base.Digest {
		t.Fatal("options changed results")
	}
	// ...must not leak its options into subsequent default runs.
	again, err := spec.Symple(segs, conf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Sym.Restarts != base.Sym.Restarts {
		t.Fatalf("options leaked: restarts %d vs %d", again.Sym.Restarts, base.Sym.Restarts)
	}
	// Nor into default runs in flight at the same time: every runner of
	// a spec shares one query, so SympleWithOptions must not write to it
	// (under -race this is also the data-race check).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := spec.SympleWithOptions(segs, conf, tight); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			run, err := spec.Symple(segs, conf)
			if err != nil {
				t.Error(err)
			} else if run.Sym.Restarts != base.Sym.Restarts {
				t.Errorf("options leaked into a concurrent run: restarts %d vs %d", run.Sym.Restarts, base.Sym.Restarts)
			}
		}()
	}
	wg.Wait()
}

func TestSpecMetadataComplete(t *testing.T) {
	for _, s := range All() {
		if s.Sequential == nil || s.Baseline == nil || s.Symple == nil || s.SympleWithOptions == nil {
			t.Errorf("%s: missing runner", s.ID)
		}
		if !s.UsesEnum && !s.UsesInt && !s.UsesPred {
			t.Errorf("%s: no sym types recorded", s.ID)
		}
	}
}

// TestSympleLineSinkRetries: with every reduce task's early attempts
// failed by the fault plan — before the first group, or mid-partition
// after some groups have written their result lines — each query's
// digest and result count are the sequential ones, so a retried
// attempt's lines replace the failed attempt's instead of adding to
// them.
func TestSympleLineSinkRetries(t *testing.T) {
	const reducers = 3
	datasets := smallDatasets(goldenSegments)
	for _, spec := range All() {
		segs := datasets[spec.Dataset]
		seq, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s: sequential: %v", spec.ID, err)
		}
		for _, pt := range []mapreduce.FaultPoint{mapreduce.PointReduceMid, mapreduce.PointReduceMerge} {
			plan := mapreduce.NewFaultPlan(7).WithPoints(pt).
				WithKinds(mapreduce.KindError, mapreduce.KindKill).WithRate(1)
			reg := obs.NewRegistry()
			got, err := spec.Symple(segs, mapreduce.Config{NumReducers: reducers, MaxAttempts: 3, Faults: plan, Registry: reg})
			if err != nil {
				t.Fatalf("%s, %v: %v", spec.ID, pt, err)
			}
			// Every non-final attempt fails — but B1 has one group, which
			// a mid-partition fault drawn past the first never follows.
			one := spec.ID == "B1" && pt == mapreduce.PointReduceMid
			if n := reg.Counter(mapreduce.MetricReduceAttempts).Value(); n != 3*reducers && !one {
				t.Fatalf("%s, %v: %d reduce attempts for %d tasks: want every non-final attempt failed",
					spec.ID, pt, n, reducers)
			}
			if got.Digest != seq.Digest || got.NumResults != seq.NumResults {
				t.Errorf("%s, %v: digest %x (%d results) != sequential %x (%d)",
					spec.ID, pt, got.Digest, got.NumResults, seq.Digest, seq.NumResults)
			}
		}
	}
}
