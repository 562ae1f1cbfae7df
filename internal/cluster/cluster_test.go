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
// queries produce byte-identical digests in process and through
// loopback TCP workers, both matching the committed golden reference.
// Goroutines and worker connections are checked back to baseline
// afterwards.
func TestTransportEquivalenceGolden(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := startWorkers(t, 2)
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
				queries.ClusterSpec(spec.ID, mapreduce.Config{NumReducers: 3}), eps)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			tcp, err := spec.Symple(segs, remoteConf(pool))
			if err != nil {
				t.Fatalf("TCP transport: %v", err)
			}
			w := golden[spec.ID]
			if mem.Digest != w.digest || mem.NumResults != w.results {
				t.Errorf("in-memory digest %016x (%d results) != golden %016x (%d)",
					mem.Digest, mem.NumResults, w.digest, w.results)
			}
			if tcp.Digest != w.digest || tcp.NumResults != w.results {
				t.Errorf("TCP digest %016x (%d results) != golden %016x (%d)",
					tcp.Digest, tcp.NumResults, w.digest, w.results)
			}
		})
	}
}

// TestWorkerDeathReturnsGolden pins what a dead worker costs: worker 0
// is killed for good right after the pool connects to it, and the job
// still returns its golden digest — the broken connection fails one map
// attempt, the pool writes the worker off, and the retries run on the
// survivor — within the 60 s bound, with the surviving worker drained.
func TestWorkerDeathReturnsGolden(t *testing.T) {
	checkGoroutineLeaks(t)
	// Worker 0 gets its own lifecycle so the test can kill it; the
	// startWorkers cleanup contract (serve error nil, connections
	// drained) holds for the survivor.
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
		queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}), eps)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kill0() // worker 0 is now permanently gone

	spec := queries.ByID("G1")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	start := time.Now()
	run, err := spec.Symple(segs, remoteConf(pool))
	if err != nil {
		t.Fatalf("job with one of two workers dead failed: %v", err)
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Fatalf("dead-worker job took %v — retries did not move to the survivor", d)
	}
	if w := readGolden(t)["G1"]; run.Digest != w.digest || run.NumResults != w.results {
		t.Errorf("digest %016x (%d results) != golden %016x (%d)",
			run.Digest, run.NumResults, w.digest, w.results)
	}
	if run.Metrics.MapAttempts <= int64(len(segs)) {
		t.Errorf("%d map attempts for %d tasks — no attempt ever reached the dead worker",
			run.Metrics.MapAttempts, len(segs))
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
		queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}), eps)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sink := obs.NewMemSink()
	conf := remoteConf(pool)
	conf.Trace = obs.NewTrace(sink)
	if _, err := spec.Symple(datasets[spec.Dataset], conf); err != nil {
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
	if _, err := spec.Symple(segs, remoteConf(pool)); err == nil {
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
		run, err := spec.Symple(datasets[spec.Dataset], remoteConf(pool))
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
				queries.ClusterSpec(id, mapreduce.Config{NumReducers: 3}), eps)
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
			queries.ClusterSpec("G1", mapreduce.Config{NumReducers: 3}), eps)
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
