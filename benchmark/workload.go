package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// A workload is one traffic mix on one entry point. Its classes are an
// odd number of equally weighted queries run round-robin, so that the
// sorted job walls split into equal parts and job_p50_ms lands inside
// the middle class and job_p90_ms inside the slowest, never on a gap
// between two classes.
type workload struct {
	name    string
	kind    pathKind
	classes []string // query IDs; a round is one job of each
	records int      // per corpus
	why     string
}

type pathKind int

const (
	batchPath   pathKind = iota // in-process Spec.Symple
	serveWarm                   // loopback query service, cache primed
	serveAppend                 // same service, one fresh segment per job
)

// The record counts are the largest at which a round takes under half
// the 0.6 s that minRounds rounds in a 20 s window allow, on one core of
// this host when its neighbours are busy: the window, not the floor on
// rounds, should end a run. A B3 job costs five times a T1 job in process
// and twice that on the service, so the workloads that run it get fewer
// records.
var workloads = []workload{
	{"batch-wide", batchPath, []string{"R1", "G1", "R3"}, 100000,
		"~1 KB records, 100 to 5000 groups: parse + GroupBy does the work, shuffle and compose almost none"},
	{"batch-dense", batchPath, []string{"B1", "T1", "B3"}, 60000,
		"100-300 B records, 1 / 6000 / 12000 groups: symbolic exec per key, summary encode, merge and compose dominate"},
	{"serve-warm", serveWarm, []string{"T1", "G1", "B3"}, 40000,
		"re-submission answered from the summary cache: digest, lookup, fold, result and framing, zero map work"},
	{"serve-append", serveAppend, []string{"T1", "G1", "B3"}, 40000,
		"one fresh segment appended per job: a cache miss and Put beside eight hits, the write beside the read"},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	segments     = 8    // per corpus; serve-append appends a ninth of the same size
	smokeRecords = 2000 // per corpus in the smoke mode: enough to cross every layer
)

// genCorpus generates records records of one dataset in segs segments,
// with the parameters internal/bench.GenDatasets has at a scale of n
// records (a test holds the two tables together). n stays the base
// corpus's count when a fresh segment is generated, so that its keys
// come from the same population.
func genCorpus(dataset string, n, records, segs int, seed int64) ([]*mapreduce.Segment, error) {
	switch dataset {
	case "github":
		return data.GenGithub(data.GithubConfig{Records: records, Repos: max(n/20, 1),
			Segments: segs, Filler: 820, Seed: 42 + seed}), nil
	case "bing":
		return data.GenBing(data.BingConfig{Records: records, Users: max(n/5, 1), Geos: 50,
			Segments: segs, Filler: 100, Seed: 43 + seed, Outages: max(n/15000, 3)}), nil
	case "twitter":
		return data.GenTwitter(data.TwitterConfig{Records: records, Hashtags: max(n/10, 1),
			Users: max(n/4, 1), Segments: segs, Filler: 300, Seed: 44 + seed}), nil
	case "redshift":
		return data.GenRedshift(data.RedshiftConfig{Records: records, Advertisers: 100,
			Segments: segs, Filler: 850, Seed: 45 + seed, DarkWindows: 3}), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// spec returns the query behind a class, registering its serve runner
// as a side effect (queries register on construction).
func spec(class string) (*queries.Spec, error) {
	s := queries.ByID(class)
	if s == nil {
		return nil, fmt.Errorf("unknown query %q", class)
	}
	return s, nil
}

// inputs is what the generator process hands the measured process: the
// corpora on disk and, per class, Spec.Sequential's digest over exactly
// the segments a job answers.
type inputs struct {
	Dir          string            `json:"dir"`
	Want         map[string]uint64 `json:"want"`          // over the base segments
	WantAppended map[string]uint64 `json:"want_appended"` // over base + fresh (serve-append)
	Records      map[string]int    `json:"records"`       // in the base segments
	FreshRecords map[string]int    `json:"fresh_records"` // in the fresh segment
}

func baseDir(dir, dataset string) string  { return filepath.Join(dir, dataset) }
func freshDir(dir, dataset string) string { return filepath.Join(dir, dataset+"-fresh") }

// generate writes the workload's corpora under dir and computes the
// reference digests. This is the benchmark's own cost: it runs in the
// generator process, outside every timed interval and outside the
// measured process's memory.
func generate(w *workload, smoke bool, seed int64, dir string) (*inputs, error) {
	n := w.records
	if smoke {
		n = smokeRecords
	}
	in := &inputs{Dir: dir, Want: map[string]uint64{}, WantAppended: map[string]uint64{},
		Records: map[string]int{}, FreshRecords: map[string]int{}}
	base := map[string][]*mapreduce.Segment{}
	fresh := map[string]*mapreduce.Segment{}
	digest := func(sp *queries.Spec, segs ...*mapreduce.Segment) (uint64, error) {
		ref, err := sp.Sequential(segs)
		if err != nil {
			return 0, fmt.Errorf("%s reference: %w", sp.ID, err)
		}
		return ref.Digest, nil
	}
	for _, class := range w.classes {
		sp, err := spec(class)
		if err != nil {
			return nil, err
		}
		if base[sp.Dataset] == nil {
			segs, err := genCorpus(sp.Dataset, n, n, segments, seed*1000)
			if err != nil {
				return nil, err
			}
			if err := mapreduce.WriteSegments(baseDir(dir, sp.Dataset), segs); err != nil {
				return nil, err
			}
			base[sp.Dataset] = segs
			if w.kind == serveAppend {
				if segs, err = genCorpus(sp.Dataset, n, n/segments, 1, seed*1000+500); err != nil {
					return nil, err
				}
				if err := mapreduce.WriteSegments(freshDir(dir, sp.Dataset), segs); err != nil {
					return nil, err
				}
				fresh[sp.Dataset] = segs[0]
			}
		}
		segs := base[sp.Dataset]
		for _, s := range segs {
			in.Records[class] += len(s.Records)
		}
		if in.Want[class], err = digest(sp, segs...); err != nil {
			return nil, err
		}
		if w.kind != serveAppend {
			continue
		}
		// Every timed job appends its own variant of the fresh segment
		// (see variant). The variants must all have the answer computed
		// here, so check on one that they do.
		f := fresh[sp.Dataset]
		in.FreshRecords[class] = len(f.Records)
		segs = segs[:len(segs):len(segs)]
		if in.WantAppended[class], err = digest(sp, append(segs, f)...); err != nil {
			return nil, err
		}
		alt, err := digest(sp, append(segs, variant(f, 1))...)
		if err != nil {
			return nil, err
		}
		if alt != in.WantAppended[class] {
			return nil, fmt.Errorf("%s: the answer depends on the filler field (%016x != %016x)",
				class, alt, in.WantAppended[class])
		}
	}
	return in, nil
}

// variant returns a copy of seg whose first record carries n in the
// last bytes of its last field. That field is filler no query reads, so
// every variant has the same answer, but the service addresses its
// summary cache by content, so every variant is a segment it has never
// seen: a cache miss, one mapped segment and a Put, at a map cost that
// does not move from job to job.
func variant(seg *mapreduce.Segment, n int) *mapreduce.Segment {
	recs := append([][]byte(nil), seg.Records...)
	tag := fmt.Sprintf("%08x", n)
	first := append([]byte(nil), recs[0]...)
	copy(first[len(first)-len(tag):], tag)
	recs[0] = first
	return &mapreduce.Segment{Records: recs}
}
