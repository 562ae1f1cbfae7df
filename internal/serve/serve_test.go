// Package serve_test is the query-service differential suite: it proves
// the multi-tenant incremental service equivalent to the batch SYMPLE
// engine by driving real jobs over loopback TCP and requiring every
// interleaving of segment arrival and cache reuse to reproduce the
// committed golden digests byte for byte — cold, warm, appended,
// evicted, under concurrency, and under injected faults.
package serve_test

import (
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestMain forces the query specs into existence once, which registers
// every query's fold runner in the serve registry.
func TestMain(m *testing.M) {
	queries.RegisterClusterJobs()
	os.Exit(m.Run())
}

// checkGoroutineLeaks fails the test if goroutines have not returned to
// the baseline by cleanup — the anchor for the service's drain
// guarantees on success, cancel, and disconnect paths.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d running, baseline %d\n%s",
					runtime.NumGoroutine(), base, buf[:n])
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// goldenEntry mirrors one line of the committed golden digest file.
type goldenEntry struct {
	digest  uint64
	results int
}

// readGolden parses the queries package's committed reference digests.
func readGolden(t *testing.T) map[string]goldenEntry {
	t.Helper()
	path := filepath.Join("..", "queries", "testdata", "golden_digests.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	want := make(map[string]goldenEntry, 12)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		d, err := strconv.ParseUint(fields[1], 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			t.Fatal(err)
		}
		want[fields[0]] = goldenEntry{d, n}
	}
	if len(want) != 12 {
		t.Fatalf("golden file has %d queries, want 12", len(want))
	}
	return want
}

// startServer runs a service on loopback; cleanup stops it and waits
// for the accept loop and every connection to drain.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	if cfg.Engine.NumReducers == 0 {
		cfg.Engine.NumReducers = 3
	}
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// dialClient connects a client; cleanup closes it.
func dialClient(t *testing.T, addr string) *serve.Client {
	t.Helper()
	c, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// submitWait submits one batch job and waits for its result.
func submitWait(t *testing.T, c *serve.Client, tenant, query, dataset string) cluster.JobResult {
	t.Helper()
	j, err := c.Submit(cluster.JobSubmit{Tenant: tenant, Query: query, Dataset: dataset})
	if err != nil {
		t.Fatalf("submit %s/%s: %v", query, dataset, err)
	}
	res, err := j.Wait()
	if err != nil {
		t.Fatalf("job %s/%s: %v", query, dataset, err)
	}
	return res
}

// checkResult compares one job result against the golden reference.
func checkResult(t *testing.T, label, query string, res cluster.JobResult, golden map[string]goldenEntry) {
	t.Helper()
	want := golden[query]
	if res.Digest != want.digest || res.NumResults != want.results {
		t.Errorf("%s %s: digest %016x (%d results), golden %016x (%d)",
			label, query, res.Digest, res.NumResults, want.digest, want.results)
	}
}

// wantProvenance checks one job's segment accounting.
func wantProvenance(t *testing.T, label string, res cluster.JobResult, cached, mapped int) {
	t.Helper()
	if res.Segments != cached+mapped || res.CacheHits != cached || res.MappedSegments != mapped {
		t.Errorf("%s: %d segments, %d cached, %d mapped; want %d cached and %d mapped",
			label, res.Segments, res.CacheHits, res.MappedSegments, cached, mapped)
	}
}

// TestServeBatchGolden is the core tentpole contract: every query run
// cold through the service reproduces the committed golden digest; a
// warm re-submission reproduces it from the cached parts with zero map
// work and — the list now seen twice — leaves the folded prefix behind;
// a third is answered from that prefix with no fold either; and a job
// over one appended segment folds only that segment over the prefix.
// The provenance is pinned by the result's counters and by the trace:
// the whole trace passes the verifier, whose serve-cache invariant
// forbids map spans under every warm root and fold spans under the
// prefix-answered ones.
func TestServeBatchGolden(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	sink := obs.NewMemSink()
	reg := obs.NewRegistry()
	srv, addr := startServer(t, serve.Config{Trace: obs.NewTrace(sink), Registry: reg})
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	c := dialClient(t, addr)

	const n = queries.GoldenSegments
	for _, spec := range queries.All() {
		for _, step := range []struct {
			label          string
			cached, mapped int
		}{{"cold", 0, n}, {"warm", n, 0}, {"prefix", n, 0}} {
			res := submitWait(t, c, "acme", spec.ID, spec.Dataset)
			checkResult(t, step.label, spec.ID, res, golden)
			wantProvenance(t, step.label+" "+spec.ID, res, step.cached, step.mapped)
		}
	}
	if st := srv.CacheStats(); st.Prefixes != len(queries.All()) {
		t.Errorf("%d prefixes cached, want one per query (%d)", st.Prefixes, len(queries.All()))
	}
	// Appended data: the standing prefix plus one mapped segment. The
	// appended segment repeats the dataset's first, so there is no golden
	// digest for it; the incremental suite checks such answers.
	for name, segs := range datasets {
		if err := srv.AppendSegment(name, &mapreduce.Segment{Records: segs[0].Records}); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range queries.All() {
		res := submitWait(t, c, "acme", spec.ID, spec.Dataset)
		// The appended segment's content is the first segment's, so its
		// part is cached: all n+1 segments are hits, n of them by prefix.
		wantProvenance(t, "append "+spec.ID, res, n+1, 0)
	}

	// Trace-level pins: per query one cold root, two warm roots of which
	// one is answered whole from the prefix, and one append root that
	// resumed from the prefix and folded one segment.
	spans := sink.Spans()
	folds := map[int64]int{}
	for _, sp := range spans {
		if sp.Kind == obs.KindFold {
			folds[sp.Parent]++
		}
	}
	var byPrefix, resumed, mapSpans int
	for _, sp := range spans {
		switch sp.Kind {
		case obs.KindMapAttempt, obs.KindMapParse, obs.KindMapExec:
			mapSpans++
		}
		if sp.Kind != obs.KindJob || sp.Attr(obs.AttrSegments) == 0 {
			continue
		}
		switch prefix := sp.Attr(obs.AttrPrefixSegments); {
		case prefix == sp.Attr(obs.AttrSegments):
			byPrefix++
			if folds[sp.ID] != 0 {
				t.Errorf("job %q answered from a prefix has %d fold spans", sp.Name, folds[sp.ID])
			}
		case prefix > 0:
			resumed++
			if folds[sp.ID] != 1 {
				t.Errorf("job %q resumed from a prefix has %d fold spans, want 1", sp.Name, folds[sp.ID])
			}
		}
	}
	if want := len(queries.All()); byPrefix != want || resumed != want {
		t.Errorf("%d jobs answered from a prefix and %d resumed from one, want %d each", byPrefix, resumed, want)
	}
	if mapSpans == 0 {
		t.Error("trace has no map spans at all — cold runs were not traced")
	}
	if err := (obs.Verifier{}).Check(spans); err != nil {
		t.Errorf("trace verifier: %v", err)
	}

	// Service metrics must reflect what happened: four completed jobs a
	// query, no rejections or failures, and a hit per cached segment.
	snap := reg.Snapshot()
	if got := snap[serve.MetricJobsCompleted]; got != int64(4*len(queries.All())) {
		t.Errorf("completed jobs metric %d, want %d", got, 4*len(queries.All()))
	}
	if snap[serve.MetricJobsRejected] != 0 || snap[serve.MetricJobsFailed] != 0 {
		t.Errorf("unexpected rejected/failed jobs: %v / %v",
			snap[serve.MetricJobsRejected], snap[serve.MetricJobsFailed])
	}
	if st, want := srv.CacheStats(), int64(len(queries.All())*(3*n+1)); st.Hits != want {
		t.Errorf("cache hits %d, want %d (a prefix of k segments is k hits)", st.Hits, want)
	}
}

// TestServePrefixSplits is the prefix cache's exactness contract: for
// all 12 queries and every split point k of an 8-segment dataset, a job
// over the first k segments twice and then over all 8 returns the
// golden digest, the third job resuming from the k-segment prefix the
// second left behind and mapping exactly the rest.
func TestServePrefixSplits(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	const n = 8
	datasets := queries.GoldenDatasets(n)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		for k := 1; k <= n; k++ {
			srv.FlushCache() // each split starts cold
			srv.AddDataset("split", segs[:k])
			first := submitWait(t, c, "split", spec.ID, "split")
			wantProvenance(t, fmt.Sprintf("%s[:%d] first", spec.ID, k), first, 0, k)
			second := submitWait(t, c, "split", spec.ID, "split")
			wantProvenance(t, fmt.Sprintf("%s[:%d] second", spec.ID, k), second, k, 0)
			if second.Digest != first.Digest || second.NumResults != first.NumResults {
				t.Errorf("%s[:%d]: warm digest %016x, cold %016x", spec.ID, k, second.Digest, first.Digest)
			}
			if st := srv.CacheStats(); st.Prefixes != 1 {
				t.Errorf("%s[:%d]: %d prefixes after the second sight, want 1", spec.ID, k, st.Prefixes)
			}
			srv.AddDataset("split", segs)
			full := submitWait(t, c, "split", spec.ID, "split")
			checkResult(t, fmt.Sprintf("split %d", k), spec.ID, full, golden)
			wantProvenance(t, fmt.Sprintf("%s[:%d] full", spec.ID, k), full, k, n-k)
		}
	}
}

// TestServeIncrementalAppend drives the metamorphic incremental suite:
// for every query, the dataset is revealed segment by segment with a
// batch re-submission after each prefix. Each list is a job's for the
// first time, so each job folds cached parts plus exactly the newly
// arrived segment, and stores the previous job's list — now seen twice
// — as a prefix on the way, which the job after it resumes from. Every
// prefix's digest must match a from-scratch batch run over the same
// prefix (a reference server flushed before each job, prefixes and
// marks included), with the full dataset landing on the committed
// golden digest.
func TestServeIncrementalAppend(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)

	// Reference server with no cache reuse across prefixes: a fresh
	// service per prefix would be equivalent but slower; instead compute
	// references through the same service under a different schema-less
	// dataset name, flushing the cache to force full re-maps.
	ref, refAddr := startServer(t, serve.Config{})
	rc := dialClient(t, refAddr)

	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		ds := "inc-" + spec.ID
		srv.AddDataset(ds, segs[:1])
		ref.AddDataset(ds, segs[:1])
		for n := 1; n <= len(segs); n++ {
			if n > 1 {
				if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
				if err := ref.AppendSegment(ds, segs[n-1]); err != nil {
					t.Fatal(err)
				}
			}
			got := submitWait(t, c, "inc", spec.ID, ds)
			if got.Segments != n {
				t.Fatalf("%s prefix %d: folded %d segments", spec.ID, n, got.Segments)
			}
			// Incrementality: only the newly appended segment is mapped.
			wantProvenance(t, fmt.Sprintf("%s prefix %d", spec.ID, n), got, n-1, 1)
			ref.FlushCache()
			want := submitWait(t, rc, "inc", spec.ID, ds)
			if want.MappedSegments != n {
				t.Fatalf("reference %s prefix %d: mapped %d, want %d (flush broken?)",
					spec.ID, n, want.MappedSegments, n)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s prefix %d: incremental digest %016x (%d), batch %016x (%d)",
					spec.ID, n, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
		final := submitWait(t, c, "inc", spec.ID, ds)
		checkResult(t, "final", spec.ID, final, golden)
		wantProvenance(t, spec.ID+" final", final, len(segs), 0)
	}
	// Every list but the first of each query was seen twice (by its own
	// job and as the start of the next one's), the full list by the
	// final job: one prefix each, none for a list seen once.
	if st, want := srv.CacheStats(), len(queries.All())*queries.GoldenSegments; st.Prefixes != want {
		t.Errorf("%d prefixes cached, want %d", st.Prefixes, want)
	}
}

// TestServeEvictionMidStream covers the cache-eviction interleaving:
// losing cached state — parts, prefixes or marks, to a flush or to the
// LRU — only ever costs recomputation. A flush between submissions
// forces a full re-map and forgets the second sight with it; a cache too
// small to keep a prefix beside the parts keeps answering from whatever
// survived; a flush racing a running job is harmless (everything cached
// is immutable). Digests stay golden throughout.
func TestServeEvictionMidStream(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	const n = queries.GoldenSegments
	datasets := queries.GoldenDatasets(n)
	srv, addr := startServer(t, serve.Config{})
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	c := dialClient(t, addr)
	spec := queries.ByID("G2")
	run := func(srv *serve.Server, c *serve.Client, label string, cached, mapped int) {
		t.Helper()
		res := submitWait(t, c, "evict", spec.ID, spec.Dataset)
		checkResult(t, label, spec.ID, res, golden)
		wantProvenance(t, label, res, cached, mapped)
	}
	run(srv, c, "cold", 0, n)
	run(srv, c, "warm", n, 0)
	run(srv, c, "prefix", n, 0)
	before := srv.CacheStats()
	if before.Prefixes != 1 {
		t.Fatalf("%d prefixes before the flush, want 1", before.Prefixes)
	}
	srv.FlushCache()
	if st := srv.CacheStats(); st.Evictions-before.Evictions != int64(before.Entries) || st.Entries != 0 {
		t.Errorf("flush evicted %d of %d entries, %d left",
			st.Evictions-before.Evictions, before.Entries, st.Entries)
	}
	run(srv, c, "re-cold", 0, n)
	run(srv, c, "re-warm", n, 0) // second sight again: the flush took the marks
	if st := srv.CacheStats(); st.Prefixes != 1 {
		t.Errorf("%d prefixes after re-warming, want 1", st.Prefixes)
	}

	// A budget with room for one query's parts and prefix: a second
	// query over the same dataset pushes the first's out through the LRU,
	// prefix included, and the first is answered again from whatever
	// survived.
	small, smallAddr := startServer(t, serve.Config{CacheBytes: before.Bytes})
	small.AddDataset(spec.Dataset, datasets[spec.Dataset])
	sc := dialClient(t, smallAddr)
	for _, id := range []string{"G2", "G3", "G2"} {
		for i := 0; i < 3; i++ {
			res := submitWait(t, sc, "evict", id, spec.Dataset)
			checkResult(t, fmt.Sprintf("small cache %s job %d", id, i), id, res, golden)
		}
	}
	if st := small.CacheStats(); st.Evictions == 0 || st.Bytes > before.Bytes {
		t.Errorf("small cache: %d evictions, %d bytes held of a %d budget", st.Evictions, st.Bytes, before.Bytes)
	}
}

// TestServeSecondSightAdmission: a list seen once leaves no prefix. The
// append-once pattern — re-register the base, append a segment nobody
// will send again — repeated 200 times keeps one prefix (the base's) and
// a cache whose growth is the parts and 16-byte marks alone, inside its
// budget.
func TestServeSecondSightAdmission(t *testing.T) {
	checkGoroutineLeaks(t)
	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	base, fresh := segs[:len(segs)-1], segs[len(segs)-1]
	const budget = 96 << 10
	srv, addr := startServer(t, serve.Config{CacheBytes: budget})
	c := dialClient(t, addr)
	srv.AddDataset("ds", base)
	submitWait(t, c, "t", spec.ID, "ds")
	if st := srv.CacheStats(); st.Prefixes != 0 {
		t.Fatalf("%d prefixes after a list's first sight, want 0", st.Prefixes)
	}
	want, err := spec.Sequential(segs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		srv.AddDataset("ds", base)
		// A variant nobody has seen: the filler of its first record differs.
		recs := append([][]byte(nil), fresh.Records...)
		recs[0] = append(append([]byte(nil), recs[0]...), fmt.Sprintf("%08x", i)...)
		if err := srv.AppendSegment("ds", &mapreduce.Segment{Records: recs}); err != nil {
			t.Fatal(err)
		}
		res := submitWait(t, c, "t", spec.ID, "ds")
		wantProvenance(t, fmt.Sprintf("variant %d", i), res, len(base), 1)
		if res.Digest != want.Digest {
			t.Fatalf("variant %d: digest %016x, sequential %016x", i, res.Digest, want.Digest)
		}
		if st := srv.CacheStats(); st.Prefixes != 1 || st.Bytes > budget {
			t.Fatalf("variant %d: %d prefixes, %d bytes of a %d budget; want the base's prefix alone",
				i, st.Prefixes, st.Bytes, budget)
		}
	}
	if st := srv.CacheStats(); st.Evictions == 0 {
		t.Errorf("200 variants never filled a %d-byte cache (%d bytes): the budget was not exercised", budget, st.Bytes)
	}
}

// TestServeWarmCostIndependentOfDatasetBytes: a re-submitted job is a
// lookup by the dataset's resident address, so a dataset a hundred times
// the bytes (same records, longer filler) is answered in the same time.
// The bound is loose — before the address was resident state the ratio
// was the ratio of the bytes.
func TestServeWarmCostIndependentOfDatasetBytes(t *testing.T) {
	checkGoroutineLeaks(t)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)
	warm := func(name string, filler int) time.Duration {
		srv.AddDataset(name, data.GenGithub(data.GithubConfig{
			Records: 4000, Repos: 150, Segments: 4, Filler: filler, Seed: 11}))
		for i := 0; i < 3; i++ { // cold, second sight, first answer from the prefix
			submitWait(t, c, "t", "G1", name)
		}
		times := make([]time.Duration, 31)
		for i := range times {
			t0 := time.Now()
			if res := submitWait(t, c, "t", "G1", name); res.CacheHits != 4 || res.MappedSegments != 0 {
				t.Fatalf("%s: warm job mapped %d, cached %d", name, res.MappedSegments, res.CacheHits)
			}
			times[i] = time.Since(t0)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[len(times)/2]
	}
	thin, fat := warm("thin", 8), warm("fat", 4000)
	t.Logf("warm job median: %v over ~50 B records, %v over ~4 KB records", thin, fat)
	if fat > 3*thin+time.Millisecond {
		t.Errorf("warm job over 100x the bytes took %v against %v", fat, thin)
	}
}

// TestServeTail drives continuous-tail mode: a tail job emits its
// standing result, then a refreshed result per appended segment, each
// folding only the new arrival; the last update matches the committed
// golden digest and cancel settles the job cleanly.
func TestServeTail(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)

	for _, id := range []string{"G1", "B2", "T1", "R3"} {
		spec := queries.ByID(id)
		segs := datasets[spec.Dataset]
		ds := "tail-" + id
		srv.AddDataset(ds, segs[:1])
		j, err := c.Submit(cluster.JobSubmit{
			Tenant: "tailer", Query: id, Dataset: ds, Tail: true, TailEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		var last cluster.JobUpdate
		next := func() cluster.JobUpdate {
			t.Helper()
			select {
			case u, ok := <-j.Updates():
				if !ok {
					res, err := j.Wait()
					t.Fatalf("tail settled early: %+v err=%v", res, err)
				}
				return u
			case <-time.After(30 * time.Second):
				t.Fatal("timed out waiting for tail update")
			}
			panic("unreachable")
		}
		last = next()
		if last.Segments != 1 || last.Seq != 1 {
			t.Fatalf("%s initial update: seq %d over %d segments", id, last.Seq, last.Segments)
		}
		for n := 2; n <= len(segs); n++ {
			if err := srv.AppendSegment(ds, segs[n-1]); err != nil {
				t.Fatal(err)
			}
			for last.Segments < n {
				last = next()
			}
			if last.MappedSegments > n {
				t.Errorf("%s update %d: mapped %d segments cumulative, want <= %d",
					id, last.Seq, last.MappedSegments, n)
			}
		}
		want := golden[id]
		if last.Digest != want.digest || last.NumResults != want.results {
			t.Errorf("tail %s: digest %016x (%d), golden %016x (%d)",
				id, last.Digest, last.NumResults, want.digest, want.results)
		}
		if err := j.Cancel(); err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err == nil || res.Err != "cancelled" {
			t.Fatalf("cancelled tail settled with %q, err %v", res.Err, err)
		}
		if res.Updates < int(last.Seq) {
			t.Errorf("result reports %d updates, saw %d", res.Updates, last.Seq)
		}
	}
}

// TestServeColdPartsMatchShuffle: a cold run is a map-only job, and what
// it leaves in the summary cache is what the engine's shuffle would have
// delivered. For every query, a cold job over 8 segments at Parallelism 2
// caches, per segment, exactly the keys and bundle bytes a job with a
// Reduce over the same mapper hands its reducers for that segment's
// mapper ID — the bytes a batch run shuffles; only the order of keys
// within a part differs, which no fold reads.
func TestServeColdPartsMatchShuffle(t *testing.T) {
	checkGoroutineLeaks(t)
	engine := mapreduce.Config{NumReducers: 3, Parallelism: 2}
	srv, addr := startServer(t, serve.Config{Engine: engine})
	c := dialClient(t, addr)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	for _, spec := range queries.All() {
		segs := datasets[spec.Dataset]
		runner := serve.Lookup(spec.ID)
		sess, err := runner.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		mapFn, err := sess.Mapper(nil)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		shuffled := make([]map[string]string, len(segs)) // by mapper ID
		for i := range shuffled {
			shuffled[i] = map[string]string{}
		}
		ref := &mapreduce.Job{Name: "reference/" + spec.ID, Map: mapFn, Conf: engine,
			Reduce: func(_, _ int, key string, values []mapreduce.Shuffled) error {
				mu.Lock()
				defer mu.Unlock()
				for _, v := range values {
					shuffled[v.MapperID][key] += string(v.Value)
				}
				return nil
			}}
		if _, err := ref.Run(segs); err != nil {
			t.Fatal(err)
		}

		wantProvenance(t, "cold "+spec.ID, submitWait(t, c, "t", spec.ID, spec.Dataset), 0, len(segs))
		for i, seg := range segs {
			part, ok := srv.CachedPart(runner.SchemaKey(), seg.Digest())
			if !ok {
				t.Fatalf("%s: segment %d left no part", spec.ID, i)
			}
			got := map[string]string{}
			for key, bundle := range part.All() {
				got[string(key)] += string(bundle)
			}
			if part.Len() != len(got) || !maps.Equal(got, shuffled[i]) {
				t.Errorf("%s segment %d: part holds %d groups (%d distinct), the shuffle delivers %d; or their bytes differ",
					spec.ID, i, part.Len(), len(got), len(shuffled[i]))
			}
		}
	}
}

// TestServeColdRunIgnoresReducers: a cold run is map-only, so the
// engine's reduce-task count reaches nothing it caches. For every query,
// the parts a cold job leaves at NumReducers 1 and at 4 hold the same
// keys and bundle bytes in the same order, segment by segment.
func TestServeColdRunIgnoresReducers(t *testing.T) {
	checkGoroutineLeaks(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	var srvs [2]*serve.Server
	var clients [2]*serve.Client
	for i, reducers := range []int{1, 4} {
		var addr string
		srvs[i], addr = startServer(t, serve.Config{Engine: mapreduce.Config{NumReducers: reducers}})
		clients[i] = dialClient(t, addr)
		for name, segs := range datasets {
			srvs[i].AddDataset(name, segs)
		}
	}
	for _, spec := range queries.All() {
		schema := serve.Lookup(spec.ID).SchemaKey()
		var parts [2][]string
		for i, c := range clients {
			wantProvenance(t, fmt.Sprintf("cold %s, server %d", spec.ID, i),
				submitWait(t, c, "t", spec.ID, spec.Dataset), 0, len(datasets[spec.Dataset]))
			for j, seg := range datasets[spec.Dataset] {
				part, ok := srvs[i].CachedPart(schema, seg.Digest())
				if !ok {
					t.Fatalf("%s: segment %d left no part on server %d", spec.ID, j, i)
				}
				var b strings.Builder
				for key, bundle := range part.All() {
					fmt.Fprintf(&b, "%q=%x;", key, bundle)
				}
				parts[i] = append(parts[i], b.String())
			}
		}
		for j := range parts[0] {
			if parts[0][j] != parts[1][j] {
				t.Errorf("%s segment %d: the part cached at 1 reducer differs from the one at 4", spec.ID, j)
			}
		}
	}
}

// TestClientJobAllocCeiling: a job's handle buffers updates only if the
// job tails. A submitted-and-awaited job answered from a prefix costs the
// whole process — client, server and framing — a few KB; the 1 024-slot
// update channel every handle used to carry was 56 KB on its own.
func TestClientJobAllocCeiling(t *testing.T) {
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)
	srv.AddDataset("ds", data.GenGithub(data.GithubConfig{Records: 2000, Repos: 50, Segments: 2, Seed: 5}))
	for i := 0; i < 3; i++ { // cold, second sight, first answer from the prefix
		submitWait(t, c, "t", "G1", "ds")
	}
	const jobs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		submitWait(t, c, "t", "G1", "ds")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / jobs; per > 8<<10 {
		t.Errorf("a warm non-tail job allocates %d bytes end to end, want under 8 KB", per)
	} else {
		t.Logf("%d bytes per warm job", per)
	}
}

// TestRejectedHelloSaysWhy: a peer whose hello carries another protocol
// version is told why before the hang-up, by a cluster worker and by the
// query service alike; and NewClient, turned away, returns the reason as
// the peer sent it.
func TestRejectedHelloSaysWhy(t *testing.T) {
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() { workerDone <- cluster.NewWorker().Serve(ctx, wln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-workerDone; err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	_, srvAddr := startServer(t, serve.Config{})

	// A hello as a version-11, -12 or -13 peer sends it: the magic
	// "SYMP", then the version.
	for _, v := range []uint64{11, 12, 13} {
		hello := wire.NewEncoder(8)
		hello.Uvarint(0x53594D50)
		hello.Uvarint(v)
		for _, addr := range []string{wln.Addr().String(), srvAddr} {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			fc := cluster.NewFrameConn(conn)
			if err := fc.Write(cluster.FrameHello, hello.Bytes()); err != nil {
				t.Fatal(err)
			}
			f, err := fc.Next()
			conn.Close()
			if err != nil || f.Type != cluster.FrameError {
				t.Fatalf("%s answered a v%d hello with frame %d (%v), want an error frame", addr, v, f.Type, err)
			}
			d := wire.NewDecoder(f.Payload)
			want := fmt.Sprintf("version %d", v)
			if msg := d.String(); d.Err() != nil || d.Remaining() != 0 || !strings.Contains(msg, want) {
				t.Errorf("%s: rejection %q (%v), want it to name %s", addr, msg, d.Err(), want)
			}
		}
	}

	// A peer that turns every hello away, with a reason.
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rln.Close()
	go func() {
		conn, err := rln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := cluster.NewFrameConn(conn)
		if _, err := fc.Next(); err != nil {
			return
		}
		reason := wire.NewEncoder(16)
		reason.String("no room at the inn")
		_ = fc.Write(cluster.FrameError, reason.Bytes())
		_, _ = fc.Next() // until the client hangs up
	}()
	_, err = serve.Dial(rln.Addr().String())
	if err == nil || !strings.HasSuffix(err.Error(), ": no room at the inn") {
		t.Fatalf("client turned away: %v, want the peer's reason as sent", err)
	}
}

// TestServeOutlivesReleasedLoad: nothing the service keeps after a job
// — cached parts, prefixes, result lines — views the records of the
// segments it mapped. A dataset loaded from disk runs once per query;
// the dataset is then replaced by a second load of the same files and
// the first load released (a read of one of its records faults); every
// resubmission is answered from the cache with the golden digest, and
// reads no released byte.
func TestServeOutlivesReleasedLoad(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	srv, addr := startServer(t, serve.Config{})
	c := dialClient(t, addr)
	const n = 8
	dirs := map[string]string{}
	var probes [][]byte // a record of each first load, and its bytes
	var wants []string
	for name, segs := range queries.GoldenDatasets(n) {
		dirs[name] = t.TempDir()
		if err := mapreduce.WriteSegments(dirs[name], segs); err != nil {
			t.Fatal(err)
		}
		loaded := readSegments(t, dirs[name])
		probes, wants = append(probes, loaded[0].Records[0]), append(wants, string(loaded[0].Records[0]))
		srv.AddDataset(name, loaded)
	}
	for _, spec := range queries.All() {
		res := submitWait(t, c, "t", spec.ID, spec.Dataset)
		checkResult(t, "first load", spec.ID, res, golden)
		wantProvenance(t, "first load "+spec.ID, res, 0, n)
	}
	for name, dir := range dirs {
		srv.AddDataset(name, readSegments(t, dir))
	}
	for i, rec := range probes {
		if !released(t, rec, wants[i]) {
			t.Fatal("the first load was never released")
		}
	}
	for _, spec := range queries.All() {
		res := submitWait(t, c, "t", spec.ID, spec.Dataset)
		checkResult(t, "second load", spec.ID, res, golden)
		wantProvenance(t, "second load "+spec.ID, res, n, 0)
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

// released collects until reading rec, a record of a dropped load,
// faults — its segment's mappings were released — and reports whether
// that happened. A read that does not fault must return want, rec's
// bytes.
func released(t *testing.T, rec []byte, want string) bool {
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
