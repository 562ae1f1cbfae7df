// Package cluster_test is the distributed differential-test suite: it
// proves the TCP coordinator/worker execution path equivalent to the
// in-process engine by running the paper's queries through both and
// requiring byte-identical digests — against the committed golden
// reference, under injected worker faults, and across real worker
// subprocesses (this test binary re-executed in worker mode).
package cluster_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
)

// workerEnv flips a spawned copy of this test binary into worker mode;
// silentEnv makes it sit on stdin without ever printing the listen
// banner (for the spawn-timeout hardening test).
const (
	workerEnv = "SYMPLE_TEST_WORKER"
	silentEnv = "SYMPLE_TEST_SILENT"
)

// TestMain is the re-exec shim: with workerEnv set, the process is a
// cluster worker daemon, not a test run. SpawnWorker passes Env only —
// no flags — so the test framework's flag parsing never sees it.
func TestMain(m *testing.M) {
	switch {
	case os.Getenv(workerEnv) == "1":
		queries.RegisterClusterJobs()
		if err := cluster.WorkerMain(""); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case os.Getenv(silentEnv) == "1":
		// Misbehaving worker: alive, reads stdin, never announces.
		buf := make([]byte, 1)
		for {
			if _, err := os.Stdin.Read(buf); err != nil {
				os.Exit(0)
			}
		}
	}
	os.Exit(m.Run())
}

// checkGoroutineLeaks fails the test if goroutines have not returned to
// the baseline by cleanup.
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

// startWorkers runs n in-process loopback workers; cleanup asserts each
// drained its connections and its accept loop exited.
func startWorkers(t *testing.T, n int) []cluster.Endpoint {
	t.Helper()
	eps := make([]cluster.Endpoint, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := cluster.NewWorker()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Serve(ctx, ln) }()
		t.Cleanup(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("worker serve: %v", err)
			}
			if active := w.Active(); active != 0 {
				t.Errorf("worker leaked %d connections", active)
			}
		})
		eps[i] = cluster.Dial(ln.Addr().String())
	}
	return eps
}

// goldenEntry mirrors one line of the committed golden digest file.
type goldenEntry struct {
	digest  uint64
	results int
}

// readGolden parses the queries package's committed reference digests —
// the transport equivalence contract is against those exact bytes.
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

// remoteConf is the engine configuration for a coordinator run: the
// given pool executes map attempts, with a retry budget and speculation
// so injected faults are survivable.
func remoteConf(pool *cluster.Pool) mapreduce.Config {
	return mapreduce.Config{
		NumReducers:  3,
		MaxAttempts:  4,
		Speculation:  true,
		RetryBackoff: 100 * time.Microsecond,
		RemoteMap:    pool,
	}
}

// TestTransportEquivalenceGolden is the core satellite contract: all 12
// queries produce byte-identical digests through the in-memory
// transport, through loopback TCP workers shuffling via the
// coordinator, and through the worker-to-worker topology — all matching
// the committed golden reference. Across the whole suite, the w2w
// topology must also collapse the coordinator's shuffle-plane ingress
// (runs vs receipts + combined reduce replies). Goroutines and worker
// connections are checked back to baseline afterwards.
func TestTransportEquivalenceGolden(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := startWorkers(t, 2)
	var viaIngress, w2wIngress int64
	for _, spec := range queries.All() {
		// Workers index their own digest-cached copy of each segment, as
		// the in-memory run indexes the coordinator's.
		segs := datasets[spec.Dataset]
		t.Run(spec.ID, func(t *testing.T) {
			mem, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
			if err != nil {
				t.Fatalf("in-memory transport: %v", err)
			}
			pool, err := cluster.NewPool(
				queries.ClusterSpec(spec.ID, mapreduce.Config{NumReducers: 3}, core.SympleOptions{}), eps)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			conf := remoteConf(pool)
			tcp, err := spec.SympleOpts(segs, conf, core.SympleOptions{})
			if err != nil {
				t.Fatalf("TCP transport: %v", err)
			}
			viaIngress += pool.Stats().ShuffleIngressBytes

			w2wPool, err := cluster.NewPool(
				queries.ClusterSpec(spec.ID, mapreduce.Config{NumReducers: 3}, core.SympleOptions{}),
				eps, cluster.WithW2W())
			if err != nil {
				t.Fatal(err)
			}
			defer w2wPool.Close()
			w2wConf := remoteConf(w2wPool)
			w2wConf.RemoteReduce = w2wPool
			w2w, err := spec.SympleOpts(segs, w2wConf, core.SympleOptions{})
			if err != nil {
				t.Fatalf("w2w transport: %v", err)
			}
			w2wIngress += w2wPool.Stats().ShuffleIngressBytes

			w := golden[spec.ID]
			if mem.Digest != w.digest || mem.NumResults != w.results {
				t.Errorf("in-memory digest %016x (%d results) != golden %016x (%d)",
					mem.Digest, mem.NumResults, w.digest, w.results)
			}
			if tcp.Digest != w.digest || tcp.NumResults != w.results {
				t.Errorf("TCP digest %016x (%d results) != golden %016x (%d)",
					tcp.Digest, tcp.NumResults, w.digest, w.results)
			}
			if w2w.Digest != w.digest || w2w.NumResults != w.results {
				t.Errorf("w2w digest %016x (%d results) != golden %016x (%d)",
					w2w.Digest, w2w.NumResults, w.digest, w.results)
			}
		})
	}
	if viaIngress == 0 || w2wIngress == 0 {
		t.Fatalf("shuffle ingress not recorded (via %d, w2w %d)", viaIngress, w2wIngress)
	}
	if w2wIngress*2 > viaIngress {
		t.Errorf("w2w coordinator shuffle ingress %d bytes is not well below via-coordinator %d bytes",
			w2wIngress, viaIngress)
	}
	t.Logf("coordinator shuffle ingress across the suite: via %d bytes, w2w %d bytes (%.1fx reduction)",
		viaIngress, w2wIngress, float64(viaIngress)/float64(w2wIngress))
}

// TestW2WTraceSpans extends the observability contract to the w2w
// topology: every partition gets a part_owner span, worker reduce spans
// arrive tagged remote with the owner's worker attr, and the merged
// trace passes every verifier invariant — including the owner-decode
// join between part_owner and the reduce-side seg_decode spans.
func TestW2WTraceSpans(t *testing.T) {
	checkGoroutineLeaks(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := startWorkers(t, 2)
	spec := queries.ByID("G1")
	pool, err := cluster.NewPool(
		queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}, core.SympleOptions{}),
		eps, cluster.WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sink := obs.NewMemSink()
	conf := remoteConf(pool)
	conf.RemoteReduce = pool
	conf.Trace = obs.NewTrace(sink)
	if _, err := spec.SympleOpts(datasets[spec.Dataset], conf, core.SympleOptions{}); err != nil {
		t.Fatal(err)
	}
	spans := sink.Spans()
	var owners, remoteDecodes, ownerFolds int
	for _, sp := range spans {
		switch {
		case sp.Kind == obs.KindCompose && sp.Tag(obs.TagRemote) == "1":
			// The owner-side reduce is the reducer's fold: n applies,
			// no summary∘summary composes.
			ownerFolds++
			if c, a, n := sp.Attr(obs.AttrComposes), sp.Attr(obs.AttrApplies), sp.Attr(obs.AttrSummaries); c != 0 || a != n {
				t.Errorf("owner compose span %q: %d composes + %d applies over %d summaries", sp.Name, c, a, n)
			}
		case sp.Kind == obs.KindPartOwner:
			owners++
			if _, ok := sp.Lookup(obs.AttrWorker); !ok {
				t.Errorf("part_owner span %d missing the worker attr", sp.ID)
			}
		case sp.Kind == obs.KindSegDecode && sp.Tag(obs.TagRemote) == "1":
			remoteDecodes++
			if _, ok := sp.Lookup(obs.AttrWorker); !ok {
				t.Errorf("remote seg_decode span %d missing the worker attr", sp.ID)
			}
		}
	}
	if owners != 3 {
		t.Errorf("%d part_owner spans, want one per partition (3)", owners)
	}
	if remoteDecodes == 0 {
		t.Error("no remote seg_decode spans — worker reduce spans did not ship")
	}
	if ownerFolds == 0 {
		t.Error("no owner-side compose spans — the worker-resident fold is invisible to the verifier")
	}
	if err := (obs.Verifier{}).Check(spans); err != nil {
		t.Errorf("merged w2w trace failed verification: %v", err)
	}
}

// TestW2WOwnerDeathFailsCleanly pins the dead-reduce-owner semantics:
// partition ownership is static for the job's lifetime, so when an
// owner dies for good, map attempts cannot settle their pushes and the
// job fails with a clean error once the retry budget exhausts — no
// hang, no partial result, and the surviving worker drains.
func TestW2WOwnerDeathFailsCleanly(t *testing.T) {
	checkGoroutineLeaks(t)
	// Worker 0 gets its own lifecycle so the test can kill it; the
	// startWorkers cleanup contract (serve error nil) still holds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w0 := cluster.NewWorker()
	ctx0, cancel0 := context.WithCancel(context.Background())
	done0 := make(chan error, 1)
	go func() { done0 <- w0.Serve(ctx0, ln) }()
	killed := false
	kill0 := func() {
		if killed {
			return
		}
		killed = true
		cancel0()
		if err := <-done0; err != nil {
			t.Errorf("worker 0 serve: %v", err)
		}
	}
	t.Cleanup(kill0)
	eps := append([]cluster.Endpoint{cluster.Dial(ln.Addr().String())}, startWorkers(t, 1)...)

	pool, err := cluster.NewPool(
		queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}, core.SympleOptions{}),
		eps, cluster.WithW2W())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kill0() // owner of partitions 0 and 2 is now permanently gone

	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	start := time.Now()
	if _, err := spec.SympleOpts(segs, func() mapreduce.Config {
		conf := remoteConf(pool)
		conf.RemoteReduce = pool
		return conf
	}(), core.SympleOptions{}); err == nil {
		t.Fatal("job with a dead partition owner succeeded — ownership must not re-elect mid-job")
	} else if !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("unexpected failure shape: %v", err)
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Fatalf("dead-owner failure took %v — retries did not fail fast", d)
	}
}

// TestTransportEquivalenceCompressedCombined covers the knobs that
// change the bytes on the wire: flate-compressed runs and the
// mapper-side combiner must survive the socket and still hit the golden
// digests.
func TestTransportEquivalenceCompressedCombined(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := startWorkers(t, 2)
	for _, id := range []string{"G1", "B1", "R1"} {
		spec := queries.ByID(id)
		segs := datasets[spec.Dataset]
		for _, mode := range []struct {
			name     string
			compress bool
			opt      core.SympleOptions
		}{
			{"compressed", true, core.SympleOptions{}},
			{"combined", false, core.SympleOptions{Combine: true}},
		} {
			t.Run(id+"/"+mode.name, func(t *testing.T) {
				base := mapreduce.Config{NumReducers: 3, CompressShuffle: mode.compress}
				pool, err := cluster.NewPool(queries.ClusterSpec(id, base, mode.opt), eps)
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				conf := remoteConf(pool)
				conf.CompressShuffle = mode.compress
				run, err := spec.SympleOpts(segs, conf, mode.opt)
				if err != nil {
					t.Fatal(err)
				}
				if w := golden[id]; run.Digest != w.digest || run.NumResults != w.results {
					t.Errorf("digest %016x (%d results) != golden %016x (%d)",
						run.Digest, run.NumResults, w.digest, w.results)
				}
			})
		}
	}
}

// TestRemoteTraceSpans checks the observability thread across the
// process boundary: worker-side spans come back re-parented under the
// coordinator's job root, tagged remote, and the merged trace still
// passes every engine invariant.
func TestRemoteTraceSpans(t *testing.T) {
	checkGoroutineLeaks(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := startWorkers(t, 2)
	spec := queries.ByID("G1")
	pool, err := cluster.NewPool(
		queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}, core.SympleOptions{}), eps)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sink := obs.NewMemSink()
	conf := remoteConf(pool)
	conf.Trace = obs.NewTrace(sink)
	if _, err := spec.SympleOpts(datasets[spec.Dataset], conf, core.SympleOptions{}); err != nil {
		t.Fatal(err)
	}
	spans := sink.Spans()
	var remote, exec int
	var jobID int64
	for _, sp := range spans {
		if sp.Kind == obs.KindJob {
			jobID = sp.ID
		}
	}
	if jobID == 0 {
		t.Fatal("no job root span")
	}
	for _, sp := range spans {
		if sp.Tag(obs.TagRemote) != "1" {
			continue
		}
		remote++
		if sp.Kind == obs.KindMapExec {
			exec++
		}
		if sp.Parent != jobID {
			t.Errorf("remote %s span %d parented to %d, want job root %d", sp.Kind, sp.ID, sp.Parent, jobID)
		}
	}
	if remote == 0 || exec == 0 {
		t.Fatalf("no re-parented worker spans in trace (%d remote, %d exec)", remote, exec)
	}
	if err := (obs.Verifier{}).Check(spans); err != nil {
		t.Errorf("merged trace failed verification: %v", err)
	}
}

// TestTransportEquivalenceJobFailure pins teardown on the error path:
// a job whose map side fails remotely must surface a clean error, and
// the pool, workers and goroutines must all drain.
func TestTransportEquivalenceJobFailure(t *testing.T) {
	checkGoroutineLeaks(t)
	eps := startWorkers(t, 2)
	// No such job is registered, so every attempt fails worker-side and
	// the retry budget exhausts.
	pool, err := cluster.NewPool(cluster.JobSpec{Query: "not-a-query", NumReducers: 3}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	if _, err := spec.SympleOpts(segs, remoteConf(pool), core.SympleOptions{}); err == nil {
		t.Fatal("job with an unregistered remote map side succeeded")
	} else if !strings.Contains(err.Error(), "no job registered") {
		t.Fatalf("unexpected failure shape: %v", err)
	}
}

// spawnTestWorkers re-executes this test binary as n real worker
// subprocesses.
func spawnTestWorkers(t *testing.T, n int) []cluster.Endpoint {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	eps, err := cluster.SpawnWorkers(exe, n, cluster.SpawnOptions{
		Env: append(os.Environ(), workerEnv+"=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if err := ep.Close(); err != nil {
				t.Errorf("stopping worker: %v", err)
			}
		}
	})
	return eps
}

// TestClusterMultiProcessDifferential is the distributed differential:
// real worker subprocesses (this binary re-executed), real sockets, and
// the digests must still match the in-memory transport exactly. Mid-
// suite, one of the two workers is killed outright — the engine's
// retry/speculation machinery must absorb the death and keep every
// digest identical.
func TestClusterMultiProcessDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process differential skipped in -short")
	}
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := spawnTestWorkers(t, 2)

	runPool := func(t *testing.T, id string, pool *cluster.Pool) {
		spec := queries.ByID(id)
		run, err := spec.SympleOpts(datasets[spec.Dataset], remoteConf(pool), core.SympleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if w := golden[id]; run.Digest != w.digest || run.NumResults != w.results {
			t.Errorf("%s: subprocess digest %016x (%d results) != golden %016x (%d)",
				id, run.Digest, run.NumResults, w.digest, w.results)
		}
	}

	for _, id := range []string{"G1", "B1", "R1"} {
		t.Run(id, func(t *testing.T) {
			pool, err := cluster.NewPool(
				queries.ClusterSpec(id, mapreduce.Config{NumReducers: 3}, core.SympleOptions{}), eps)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			runPool(t, id, pool)
		})
	}

	// Kill worker 0 for real (process death, not an injected frame)
	// while a pool holds live connections to it: the pool retires its
	// broken conns and the retry budget routes every attempt to the
	// survivor — digests unchanged.
	t.Run("G1-after-worker-death", func(t *testing.T) {
		pool, err := cluster.NewPool(
			queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}, core.SympleOptions{}), eps)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		if err := eps[0].Close(); err != nil {
			t.Fatal(err)
		}
		runPool(t, "G1", pool)
	})
}

// TestSpawnWorkerMissingBinary: a nonexistent worker binary fails
// immediately with a clear error, never a hang (the empty-PATH
// hardening satellite).
func TestSpawnWorkerMissingBinary(t *testing.T) {
	if _, err := cluster.SpawnWorker(filepath.Join(t.TempDir(), "no-such-sympled"),
		cluster.SpawnOptions{Timeout: 5 * time.Second}); err == nil {
		t.Fatal("spawning a nonexistent binary succeeded")
	}
	if _, err := cluster.ResolveWorkerBinary(""); err == nil {
		t.Fatal("empty binary name accepted")
	}
}

// TestResolveWorkerBinaryEmptyPath: with PATH empty and no sibling
// binary, resolution fails with an error that names the binary and the
// fix, instead of deferring the failure to a hang at connect time.
func TestResolveWorkerBinaryEmptyPath(t *testing.T) {
	t.Setenv("PATH", "")
	_, err := cluster.ResolveWorkerBinary("definitely-no-such-worker-binary")
	if err == nil {
		t.Fatal("resolution succeeded with an empty PATH")
	}
	msg := err.Error()
	if !strings.Contains(msg, "definitely-no-such-worker-binary") || !strings.Contains(msg, "go build") {
		t.Fatalf("error does not explain the failure: %v", err)
	}
}

// TestSpawnWorkerNeverAnnounces: a worker process that starts but never
// prints the listen banner is killed at the spawn timeout — the caller
// gets an error, not a wedged startup.
func TestSpawnWorkerNeverAnnounces(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = cluster.SpawnWorker(exe, cluster.SpawnOptions{
		Env:     append(os.Environ(), silentEnv+"=1"),
		Timeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("silent worker accepted")
	}
	if !strings.Contains(err.Error(), "listen address") {
		t.Fatalf("unexpected error shape: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("spawn took %v to fail — timeout not enforced", d)
	}
}

// TestWorkerMainRejectsBadAddr: an unusable listen address surfaces as
// an error from WorkerMain, not a silent exit.
func TestWorkerMainRejectsBadAddr(t *testing.T) {
	if err := cluster.WorkerMain("256.256.256.256:0"); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
