package serve_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/queries"
	"repro/internal/serve"
)

// TestServeChaosDifferential is the serve leg of the seeded chaos
// sweep. One fault plan is the service's Config.Engine.Faults — it fails
// the cold runs' map attempts inside their retry budget — and the
// harness draws each job's serve fault from the same plan. Jobs the plan
// leaves alone, and cancelled or orphaned jobs that happen to win the
// race, must still produce the fault-free golden digest; eviction must
// never change a result. Each seed replays an identical schedule.
func TestServeChaosDifferential(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := mapreduce.NewFaultPlan(seed)
			if serveChaos(t, plan, datasets, golden) == 0 {
				t.Error("chaos schedule completed no jobs — sweep is vacuous")
			}
			if plan.Injected() == 0 {
				t.Error("chaos plan injected nothing — sweep is vacuous")
			}
		})
	}
}

// serveChaos submits every query once to a service running its engine
// under plan, executing each job's PointServeJob fault: a kill drops the
// tenant's connection mid-job, an error cancels the job mid-stream, a
// delay flushes the summary cache while the job folds. It checks every
// job that completes against the golden digests and returns how many
// did.
func serveChaos(t *testing.T, plan *mapreduce.FaultPlan, datasets map[string][]*mapreduce.Segment,
	golden map[string]goldenEntry) (completed int) {
	t.Helper()
	conf := mapreduce.Config{NumReducers: 2, Parallelism: 2, MaxAttempts: 3,
		RetryBackoff: 100 * time.Microsecond, Faults: plan}
	srv, addr := startServer(t, serve.Config{Engine: conf})
	for name, segs := range datasets {
		srv.AddDataset(name, segs)
	}
	for i, spec := range queries.All() {
		c := dialClient(t, addr)
		j, err := c.Submit(cluster.JobSubmit{Tenant: "chaos", Query: spec.ID, Dataset: spec.Dataset})
		if err != nil {
			t.Fatalf("%s: submit: %v", spec.ID, err)
		}
		fs := plan.Arm(i, 0, conf.MaxAttempts, mapreduce.PointServeJob)
		switch {
		case len(fs) == 0:
			res, err := j.Wait()
			if err != nil {
				t.Errorf("%s: fault-free job failed: %v", spec.ID, err)
				continue
			}
			checkResult(t, "fault-free", spec.ID, res, golden)
			completed++
		case fs[0].Kind == mapreduce.KindKill:
			// Tenant vanishes mid-job; nothing to assert client-side (the
			// server drain + leak check carry the contract).
			c.Close()
		case fs[0].Kind == mapreduce.KindError:
			if err := j.Cancel(); err != nil {
				t.Fatalf("%s: cancel: %v", spec.ID, err)
			}
			res, err := j.Wait()
			if err == nil {
				// Completion won the race: result must be fault-free.
				checkResult(t, "cancel-race", spec.ID, res, golden)
				completed++
			} else if res.Err != "cancelled" {
				t.Errorf("%s: cancelled job settled %q (%v)", spec.ID, res.Err, err)
			}
		default:
			// Eviction mid-fold: the fold keeps its immutable bundle maps,
			// so the digest must not change.
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.FlushCache()
			}()
			res, err := j.Wait()
			<-done
			if err != nil {
				t.Errorf("%s: evict-fault job failed: %v", spec.ID, err)
				continue
			}
			checkResult(t, "evict", spec.ID, res, golden)
			completed++
		}
	}
	return completed
}

// TestChaosCoversEveryFault sweeps seeds over every setting the one plan
// fires in — an in-process job, a cluster job and the serve harness —
// and asserts each (point,
// kind) of DESIGN.md's fault-plan table was armed at least once, so a
// change that drops a fault class from its setting fails here instead
// of silently narrowing the sweeps. Every job still answers with its
// golden digest.
func TestChaosCoversEveryFault(t *testing.T) {
	golden := readGolden(t)
	datasets := queries.GoldenDatasets(queries.GoldenSegments)
	eps := chaosWorkers(t, 2)
	spec := queries.ByID("G1")
	segs := datasets[spec.Dataset]
	var armed [][]int64
	for range mapreduce.AllFaultPoints() {
		armed = append(armed, make([]int64, len(mapreduce.AllFaultKinds())))
	}
	for seed := int64(0); seed < 16; seed++ {
		plan := mapreduce.NewFaultPlan(seed)
		for _, mode := range []string{"in-process", "cluster"} {
			conf := mapreduce.Config{NumReducers: 3, MaxAttempts: 4,
				RetryBackoff: 100 * time.Microsecond, Faults: plan}
			var pool *cluster.Pool
			if mode == "cluster" {
				var err error
				if pool, err = cluster.NewPool(queries.ClusterSpec(spec.ID, conf), eps); err != nil {
					t.Fatal(err)
				}
				conf.RemoteMap = pool
			}
			got, err := spec.Symple(segs, conf)
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			if want := golden[spec.ID]; got.Digest != want.digest || got.NumResults != want.results {
				t.Fatalf("seed %d %s: digest %016x (%d results), golden %016x (%d)",
					seed, mode, got.Digest, got.NumResults, want.digest, want.results)
			}
		}
		serveChaos(t, plan, datasets, golden)
		for _, pt := range mapreduce.AllFaultPoints() {
			for _, k := range mapreduce.AllFaultKinds() {
				armed[pt][k] += plan.InjectedAt(pt, k)
			}
		}
	}
	for _, pt := range mapreduce.AllFaultPoints() {
		for _, k := range mapreduce.AllFaultKinds() {
			if armed[pt][k] == 0 {
				t.Errorf("no %v fault at %v in the sweep", k, pt)
			}
		}
	}
}

// chaosWorkers starts n in-process loopback cluster workers whose
// cleanup asserts every connection drained.
func chaosWorkers(t *testing.T, n int) []cluster.Endpoint {
	t.Helper()
	eps := make([]cluster.Endpoint, n)
	for i := range eps {
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
