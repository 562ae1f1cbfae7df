package queries

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "regenerate the golden digest file")

// goldenPath holds the committed reference digests for all 12 queries
// over the seeded small corpora. The data generators and the digest
// (order-insensitive FNV-64a over formatted result lines) are both
// deterministic, so these values are stable across machines; a change
// means query or generator semantics changed and must be deliberate:
//
//	go test ./internal/queries -run TestGoldenDigests -update
const goldenPath = "testdata/golden_digests.txt"

// goldenSegments is the segment count the golden corpora are cut into
// (exported as GoldenSegments for the cluster differential suite). It
// is part of the golden contract only via the generators' record
// placement; the digests themselves are segmentation-independent (the
// engines guarantee that, and TestAllQueriesEnginesAgree checks it).
const goldenSegments = GoldenSegments

// goldenEntry is one line of the golden file: a query's reference digest
// and result count.
type goldenEntry struct {
	digest  uint64
	results int
}

// readGoldenFile parses the committed reference digests.
func readGoldenFile(t *testing.T) map[string]goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string]goldenEntry, 12)
	for ln, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s:%d: malformed line %q", goldenPath, ln+1, line)
		}
		d, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatalf("%s:%d: bad digest %q: %v", goldenPath, ln+1, fields[1], err)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatalf("%s:%d: bad result count %q: %v", goldenPath, ln+1, fields[2], err)
		}
		want[fields[0]] = goldenEntry{d, n}
	}
	return want
}

func TestGoldenDigests(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	got := make(map[string]goldenEntry, 12)
	var order []string
	for _, spec := range All() {
		run, err := spec.Sequential(datasets[spec.Dataset])
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if run.NumResults == 0 {
			t.Fatalf("%s: no results — golden digest would pin an empty output", spec.ID)
		}
		got[spec.ID] = goldenEntry{run.Digest, run.NumResults}
		order = append(order, spec.ID)
	}

	if *update {
		var b strings.Builder
		b.WriteString("# Golden digests: <query> <digest-hex> <num-results>\n")
		b.WriteString("# Sequential reference over the seeded small corpora (6 segments).\n")
		b.WriteString("# Regenerate: go test ./internal/queries -run TestGoldenDigests -update\n")
		for _, id := range order {
			fmt.Fprintf(&b, "%s %016x %d\n", id, got[id].digest, got[id].results)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(order), goldenPath)
		return
	}

	want := readGoldenFile(t)
	for _, id := range order {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update)", id)
			continue
		}
		if g := got[id]; g != w {
			t.Errorf("%s: digest %016x (%d results), golden %016x (%d) — query or generator semantics changed",
				id, g.digest, g.results, w.digest, w.results)
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("golden file has stale query %s", id)
		}
	}
}

// TestGoldenDigestsSymple runs every golden-digest query through the
// SYMPLE engine in every state a job can find its segments in, and
// checks each against the committed reference digests:
//
//   - first touch: nothing resident, the job groups each segment;
//   - resident: the same segments again, which keeps their grouped form;
//   - memo: a third time, answered by the kept form;
//   - from disk: written with WriteSegments and loaded with ReadSegments
//     (mapped), run first-touch, resident and memo, with an earlier load
//     of the same files, its forms kept, dropped and released between
//     the first two runs.
//
// Whether a job grouped its segments or read the kept form must be
// invisible to query semantics; any divergence here is a codec or
// execution bug, not a query change, so there is no -update escape
// hatch. Each run is traced and the trace must pass every
// obs.Verifier invariant, so the golden runs double as end-to-end
// observability checks on all 12 queries in every mode.
func TestGoldenDigestsSymple(t *testing.T) {
	datasets := smallDatasets(goldenSegments)
	want := readGoldenFile(t)
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			w, ok := want[spec.ID]
			if !ok {
				t.Fatalf("missing from golden file (regenerate with -update)")
			}
			// Queries of one dataset share its segments, so each takes
			// fresh ones to make its first run a first touch.
			segs := fresh(datasets[spec.Dataset])
			dir := t.TempDir()
			if err := mapreduce.WriteSegments(dir, segs); err != nil {
				t.Fatal(err)
			}
			earlier, disk := readSegments(t, dir), readSegments(t, dir)
			probe, was := earlier[0].Records[0], string(earlier[0].Records[0])
			for _, v := range []struct {
				name string
				segs []*mapreduce.Segment
				// before runs ahead of the job.
				before func()
			}{
				{"first-touch", segs, nil},
				{"resident", segs, nil},
				{"memo", segs, nil},
				{"disk-first-touch", disk, func() {
					for range 2 {
						if _, err := spec.Symple(earlier, mapreduce.Config{NumReducers: 2}); err != nil {
							t.Fatal(err)
						}
					}
				}},
				{"disk-resident", disk, func() {
					earlier = nil
					if !awaitRelease(t, probe, was) {
						t.Fatal("the earlier load was never released")
					}
				}},
				{"disk-memo", disk, nil},
			} {
				if v.before != nil {
					v.before()
				}
				sink := obs.NewMemSink()
				reg := obs.NewRegistry()
				run, err := spec.Symple(v.segs, mapreduce.Config{
					NumReducers: 3, Trace: obs.NewTrace(sink), Registry: reg})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if run.Digest != w.digest || run.NumResults != w.results {
					t.Errorf("%s: digest %016x (%d results), golden %016x (%d)",
						v.name, run.Digest, run.NumResults, w.digest, w.results)
				}
				if run.Metrics.ShuffleBytes > run.Metrics.ShuffleLogicalBytes*2 {
					t.Errorf("%s: shuffle %d bytes vs %d logical — codec is inflating badly",
						v.name, run.Metrics.ShuffleBytes, run.Metrics.ShuffleLogicalBytes)
				}
				if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
					t.Errorf("%s: trace failed verification: %v", v.name, err)
				}
				if err := reg.SelfCheck(); err != nil {
					t.Errorf("%s: registry self-check: %v", v.name, err)
				}
			}
		})
	}
}

func readSegments(t *testing.T, dir string) []*mapreduce.Segment {
	t.Helper()
	segs, err := mapreduce.ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// awaitRelease collects until reading rec, a record of a dropped load,
// faults — its segment's mappings were released — and reports whether
// that happened. A read that does not fault must return want, rec's
// bytes.
func awaitRelease(t *testing.T, rec []byte, want string) bool {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for range 200 {
		runtime.GC()
		got, faulted := func() (got string, faulted bool) {
			defer func() { faulted = recover() != nil }()
			return string(rec), false
		}()
		if faulted {
			return true
		}
		if got != want {
			t.Fatalf("a released record read %q, want %q or a fault", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
