package queries

import (
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
)

// smallDatasets generates laptop-scale instances of all four corpora
// (now shared with the cluster differential suite as GoldenDatasets).
func smallDatasets(segments int) map[string][]*mapreduce.Segment {
	return GoldenDatasets(segments)
}

// TestAllQueriesEnginesAgree is the repository's central end-to-end
// correctness check: for every one of the paper's 12 queries, the
// sequential reference, the baseline MapReduce, and SYMPLE produce
// identical results, across several segment counts.
func TestAllQueriesEnginesAgree(t *testing.T) {
	for _, segments := range []int{1, 3, 8} {
		datasets := smallDatasets(segments)
		for _, spec := range All() {
			spec := spec
			t.Run(spec.ID, func(t *testing.T) {
				segs := datasets[spec.Dataset]
				seq, err := spec.Sequential(segs)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				base, err := spec.Baseline(segs, mapreduce.Config{NumReducers: 3})
				if err != nil {
					t.Fatalf("baseline: %v", err)
				}
				symp, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
				if err != nil {
					t.Fatalf("symple: %v", err)
				}
				if seq.NumResults == 0 {
					t.Fatalf("query produced no results — dataset pattern missing")
				}
				if base.Digest != seq.Digest || base.NumResults != seq.NumResults {
					t.Errorf("segments=%d: baseline digest %x (%d results) != sequential %x (%d)",
						segments, base.Digest, base.NumResults, seq.Digest, seq.NumResults)
				}
				if symp.Digest != seq.Digest || symp.NumResults != seq.NumResults {
					t.Errorf("segments=%d: symple digest %x (%d results) != sequential %x (%d)",
						segments, symp.Digest, symp.NumResults, seq.Digest, seq.NumResults)
				}
			})
		}
	}
}

// TestShuffleReductionRegimes checks the paper's group-count story:
// queries with few groups see enormous shuffle reductions; queries whose
// group count approaches the record count (B3, T1) see little.
func TestShuffleReductionRegimes(t *testing.T) {
	datasets := smallDatasets(8)
	reduction := func(id string) float64 {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		base, err := spec.Baseline(segs, mapreduce.Config{NumReducers: 3})
		if err != nil {
			t.Fatal(err)
		}
		symp, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Compare logical volumes: the paper's figures count records'
		// framing cost, not the segment codec's compacted wire bytes
		// (which shrink baseline and SYMPLE runs alike).
		return float64(base.Metrics.ShuffleLogicalBytes) / float64(symp.Metrics.ShuffleLogicalBytes)
	}
	// B1 has one group: extreme savings.
	if r := reduction("B1"); r < 50 {
		t.Errorf("B1 shuffle reduction %.1fx, want ≥ 50x (single group)", r)
	}
	// R1 has few groups: large savings.
	if r := reduction("R1"); r < 10 {
		t.Errorf("R1 shuffle reduction %.1fx, want ≥ 10x", r)
	}
	// B3 groups by user (~records/20 groups): modest savings at best.
	if r := reduction("B3"); r > 10 {
		t.Errorf("B3 shuffle reduction %.1fx, expected small (many groups)", r)
	}
}

// TestTable1Metadata pins the Table 1 sym-type annotations.
func TestTable1Metadata(t *testing.T) {
	want := map[string]string{
		"G1": "Enum", "G2": "Enum", "G3": "Enum+Int", "G4": "Enum+Int",
		"B1": "Int", "B2": "Pred", "B3": "Int+Pred",
		"T1": "Enum+Int",
		"R1": "Int", "R2": "Enum+Int", "R3": "Int", "R4": "Enum+Int",
	}
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("%d queries, want 12", len(specs))
	}
	for _, s := range specs {
		if got := s.SymTypesString(); got != want[s.ID] {
			t.Errorf("%s: sym types %q, want %q", s.ID, got, want[s.ID])
		}
		if s.Description == "" || s.Dataset == "" {
			t.Errorf("%s: missing metadata", s.ID)
		}
	}
	if ByID("G1") == nil || ByID("nope") != nil {
		t.Error("ByID lookup wrong")
	}
}

// TestCondensedVariantAgrees runs R1–R4 on the condensed RedShift
// variant (the paper's R1c–R4c) and checks engine agreement there too.
func TestCondensedVariantAgrees(t *testing.T) {
	segs := data.GenRedshift(data.RedshiftConfig{
		Records: 6000, Advertisers: 30, Segments: 6, Seed: 15,
		DarkWindows: 2, Condensed: true})
	for _, id := range []string{"R1", "R2", "R3", "R4"} {
		spec := ByID(id)
		seq, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%sc sequential: %v", id, err)
		}
		symp, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%sc symple: %v", id, err)
		}
		if symp.Digest != seq.Digest {
			t.Errorf("%sc: digests differ", id)
		}
	}
}

// plain-Go independent oracle for G3 (not sharing any UDA code), to
// guard against a bug in the Update logic itself being masked by
// comparing engines that share it.
func TestG3IndependentOracle(t *testing.T) {
	segs := data.GenGithub(data.GithubConfig{
		Records: 4000, Repos: 100, Segments: 1, Seed: 21})
	type repoState struct {
		inPull bool
		count  int64
		out    []int64
	}
	states := map[string]*repoState{}
	for _, rec := range segs[0].Records {
		op := data.GithubOpFromName(data.Field(rec, 2))
		repo := string(data.Field(rec, 1))
		st := states[repo]
		if st == nil {
			st = &repoState{}
			states[repo] = st
		}
		switch op {
		case data.OpPullOpen:
			st.inPull = true
			st.count = 0
		case data.OpPullClose:
			if st.inPull {
				st.out = append(st.out, st.count)
				st.inPull = false
			}
		default:
			if st.inPull {
				st.count++
			}
		}
	}
	wantLines := map[string]string{}
	for repo, st := range states {
		if len(st.out) > 0 {
			wantLines[repo] = formatInts(st.out)
		}
	}

	seq, err := ByID("G3").Sequential(segs)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumResults != len(wantLines) {
		t.Fatalf("G3 sequential found %d repos, oracle %d", seq.NumResults, len(wantLines))
	}
	// Digest equivalence against a digest built from the oracle.
	oracle := map[string][]int64{}
	for repo, st := range states {
		if len(st.out) > 0 {
			oracle[repo] = st.out
		} else {
			oracle[repo] = nil
		}
	}
	d, n := digestResults(oracle, func(key string, counts []int64) string {
		if len(counts) == 0 {
			return ""
		}
		return key + ":" + formatInts(counts)
	})
	if n != seq.NumResults || d != seq.Digest {
		t.Fatalf("oracle digest %x (%d) != sequential %x (%d)", d, n, seq.Digest, seq.NumResults)
	}
}

// Independent oracle for B1 global outage detection.
func TestB1IndependentOracle(t *testing.T) {
	segs := data.GenBing(data.BingConfig{
		Records: 6000, Users: 200, Geos: 8, Segments: 4, Seed: 22, Outages: 7})
	var all [][]byte
	for _, s := range segs {
		all = append(all, s.Records...)
	}
	var lastOk int64 = -1
	var gaps []int64
	for _, rec := range all {
		ok, _ := data.ParseInt(data.Field(rec, 3))
		if ok != 1 {
			continue
		}
		ts, _ := data.ParseInt(data.Field(rec, 0))
		if lastOk >= 0 && ts-lastOk > 120 {
			gaps = append(gaps, lastOk, ts)
		}
		lastOk = ts
	}
	if len(gaps) == 0 {
		t.Fatal("oracle found no outages")
	}
	seq, err := ByID("B1").Sequential(segs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int64{"all": gaps}
	d, _ := digestResults(want, func(key string, gs []int64) string {
		if len(gs) == 0 {
			return ""
		}
		return key + ":" + formatInts(gs)
	})
	if d != seq.Digest {
		t.Fatalf("B1 oracle digest mismatch")
	}
	// And SYMPLE must agree with the oracle across the chunk cuts.
	symp, err := ByID("B1").Symple(segs, mapreduce.Config{NumReducers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if symp.Digest != d {
		t.Fatal("B1 symple digest mismatch vs oracle")
	}
}
