package queries

import (
	"context"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/mapreduce"
)

// Differential chaos suite over the paper's queries: run SYMPLE under
// deterministic seeded fault injection — the one fault plan's kills,
// delays, and errors at every point an attempt reaches, in process and
// on cluster workers — and require the output digest to match the
// fault-free sequential reference exactly. The plan spares each task's
// final attempt, so every chaos run must succeed; any divergence or
// failure is an engine or protocol bug.
//
// CHAOS_SEEDS widens the seed sweep (CI runs 100); unset, the suite
// stays laptop-sized.

// chaosSpecIDs picks one query per symbolic-type regime: G1 (Enum over
// the GitHub log), B1 (Int, single global group over Bing), R1 (Int
// with filtering over RedShift).
var chaosSpecIDs = []string{"G1", "B1", "R1"}

// chaosSeedCount reads the CHAOS_SEEDS override shared with the engine
// sweep and CI.
func chaosSeedCount(t *testing.T, def int) int {
	t.Helper()
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS %q", v)
		}
		return n
	}
	if testing.Short() {
		return max(def/4, 2)
	}
	return def
}

// chaosDatasets generates reduced corpora so a wide seed sweep stays
// fast; seeds differ from smallDatasets so the two suites cannot mask
// each other's generator assumptions.
func chaosDatasets() map[string][]*mapreduce.Segment {
	return map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{
			Records: 3000, Repos: 120, Segments: 6, Filler: 8, Seed: 31}),
		"bing": data.GenBing(data.BingConfig{
			Records: 3000, Users: 200, Geos: 8, Segments: 6,
			Filler: 8, Seed: 32, Outages: 5}),
		"redshift": data.GenRedshift(data.RedshiftConfig{
			Records: 3000, Advertisers: 25, Segments: 6,
			Seed: 33, DarkWindows: 2}),
	}
}

// chaosConf is the fault-tolerant engine configuration the sweeps run
// under: a retry budget deep enough for the default 30% fault rate,
// speculation on, and backoffs scaled down to test time.
func chaosConf(plan *mapreduce.FaultPlan) mapreduce.Config {
	return mapreduce.Config{
		NumReducers:  3,
		MaxAttempts:  4,
		Speculation:  true,
		RetryBackoff: 100 * time.Microsecond,
		Faults:       plan,
	}
}

func TestChaosQueriesDifferential(t *testing.T) {
	seeds := chaosSeedCount(t, 8)
	datasets := chaosDatasets()
	var injected int64
	for qi, id := range chaosSpecIDs {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s sequential reference: %v", id, err)
		}
		if want.NumResults == 0 {
			t.Fatalf("%s reference produced no results", id)
		}
		t.Run(id, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				// Distinct plan seeds per (query, sweep seed) so the two
				// loops do not replay identical fault schedules.
				plan := mapreduce.NewFaultPlan(int64(seed*31 + qi))
				got, err := spec.Symple(segs, chaosConf(plan))
				if err != nil {
					t.Fatalf("seed %d: chaos run failed (final attempts are spared; this must succeed): %v", seed, err)
				}
				if got.Digest != want.Digest || got.NumResults != want.NumResults {
					t.Fatalf("seed %d: digest %x (%d results) != fault-free %x (%d)",
						seed, got.Digest, got.NumResults, want.Digest, want.NumResults)
				}
				injected += plan.Injected()
			}
		})
	}
	if injected == 0 {
		t.Error("chaos sweep injected no faults — the harness is not arming")
	}
}

// TestChaosBaselineDifferential repeats a narrower sweep under the
// baseline (non-symbolic) MapReduce engine, whose mappers shuffle raw
// records: the task lifecycle must be correct independent of the
// symbolic layer.
func TestChaosBaselineDifferential(t *testing.T) {
	seeds := chaosSeedCount(t, 4)
	datasets := chaosDatasets()
	for qi, id := range []string{"G1", "B1"} {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s sequential reference: %v", id, err)
		}
		t.Run(id, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				plan := mapreduce.NewFaultPlan(int64(seed*17 + qi + 1000))
				conf := chaosConf(plan)
				got, err := spec.Baseline(segs, conf)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got.Digest != want.Digest || got.NumResults != want.NumResults {
					t.Fatalf("seed %d: digest %x (%d results) != fault-free %x (%d)",
						seed, got.Digest, got.NumResults, want.Digest, want.NumResults)
				}
			}
		})
	}
}

// chaosWorkers starts n in-process loopback cluster workers whose
// cleanup asserts every connection drained.
func chaosWorkers(t *testing.T, n int) []cluster.Endpoint {
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

// TestClusterChaosDifferential is the distributed arm of the chaos
// suite: the same queries, under the same chaosConf(plan) as the
// in-process sweep, run over TCP workers. The one plan's faults fire
// inside the worker attempts (kills abort the worker's connection at
// map start, mid-emit, after k runs streamed, at spill write), on the
// coordinator (connection drops after k runs received) and in the
// coordinator's reduce. Every run must commit, and its digest must equal
// the fault-free sequential reference exactly. CHAOS_SEEDS widens the
// sweep (CI runs it under -race).
func TestClusterChaosDifferential(t *testing.T) {
	seeds := chaosSeedCount(t, 6)
	datasets := chaosDatasets()
	eps := chaosWorkers(t, 2)
	var injected int64
	t.Cleanup(func() {
		if injected == 0 {
			t.Error("cluster chaos sweep injected no faults — the harness is not arming")
		}
	})
	for qi, id := range chaosSpecIDs {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		want, err := spec.Sequential(segs)
		if err != nil {
			t.Fatalf("%s sequential reference: %v", id, err)
		}
		if want.NumResults == 0 {
			t.Fatalf("%s reference produced no results", id)
		}
		t.Run(id, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				plan := mapreduce.NewFaultPlan(int64(seed*53 + qi))
				conf := chaosConf(plan)
				pool, err := cluster.NewPool(ClusterSpec(id, conf), eps)
				if err != nil {
					t.Fatal(err)
				}
				conf.RemoteMap = pool
				got, err := spec.Symple(segs, conf)
				pool.Close()
				injected += plan.Injected()
				if err != nil {
					t.Fatalf("seed %d: cluster chaos run failed (final attempts are spared; this must succeed): %v", seed, err)
				}
				if got.Digest != want.Digest || got.NumResults != want.NumResults {
					t.Fatalf("seed %d: digest %x (%d results) != fault-free %x (%d)",
						seed, got.Digest, got.NumResults, want.Digest, want.NumResults)
				}
			}
		})
	}
}

// TestChaosExhaustionSurfacesCleanly drives one query into retry
// exhaustion — unsparing kills, rate 1.0 — and checks the failure is a
// clean error, not a hang, panic, or partial result.
func TestChaosExhaustionSurfacesCleanly(t *testing.T) {
	segs := chaosDatasets()["github"]
	plan := mapreduce.NewFaultPlan(99).
		WithRate(1).
		WithKinds(mapreduce.KindKill).
		WithPoints(mapreduce.PointMapStart).
		WithSpareFinal(false)
	conf := chaosConf(plan)
	conf.MaxAttempts = 2
	if _, err := ByID("G1").Symple(segs, conf); err == nil {
		t.Fatal("unsparing kill plan should have exhausted the retry budget")
	}
	if plan.InjectedAt(mapreduce.PointMapStart, mapreduce.KindKill) == 0 {
		t.Error("no kills injected")
	}
}
