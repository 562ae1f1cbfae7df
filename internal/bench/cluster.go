package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dcsim"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// clusterRounds is the timed repetitions per (query, worker-count)
// cell; the reported wall clock is the best round, after one warmup
// that absorbs mapper caching and connection setup.
const clusterRounds = 3

// clusterWorkerCounts is the scaling sweep: the same job on 1, 2, and
// 4 worker subprocesses.
var clusterWorkerCounts = []int{1, 2, 4}

// WorkerEnv is the environment variable that flips a spawned copy of
// the symplebench binary into cluster-worker mode, so the cluster
// experiment needs no separately installed sympled on PATH.
const WorkerEnv = "SYMPLEBENCH_WORKER"

// ClusterRun measures real coordinator/worker execution: SYMPLE map
// attempts shipped over loopback TCP to spawned worker subprocesses
// (re-execs of this binary flipped into worker mode via WorkerEnv), the
// runs they stream back reduced by the coordinator, next to the dcsim
// prediction for a cluster of that many single-core nodes. Every run is
// digest-checked against the sequential reference. Results go to
// BENCH_CLUSTER.json.
func ClusterRun(d *Datasets) (*Table, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	env := append(os.Environ(), WorkerEnv+"=1")

	t := &Table{
		Title:  "Cluster execution: loopback worker subprocesses",
		Header: []string{"Query", "workers", "wall", "coord shuffle in", "coord egress", "dcsim total", "speedup vs 1"},
		Notes: []string{
			fmt.Sprintf("wall: best of %d rounds after warmup; workers are spawned subprocesses on loopback TCP", clusterRounds),
			"coord shuffle in: run payload bytes the workers streamed to the coordinator; coord egress: every byte it sent them",
			"dcsim: same run's measured task costs replayed on N single-core nodes",
			"every run digest-checked against the sequential reference",
			"written to BENCH_CLUSTER.json",
		},
	}
	rep := clusterReport{Rounds: clusterRounds, MaxProcs: runtime.GOMAXPROCS(0), HostCores: runtime.NumCPU()}
	for _, n := range clusterWorkerCounts {
		if runtime.NumCPU() < n {
			w := fmt.Sprintf("host has %d cores for %d workers: worker subprocesses time-share cores, so measured scaling at %d workers understates a real cluster (the dcsim column is the counterfactual)",
				runtime.NumCPU(), n, n)
			rep.Warnings = append(rep.Warnings, w)
			t.Notes = append(t.Notes, "WARNING: "+w)
		}
	}

	for _, id := range []string{"G1", "B1", "R1"} {
		spec := queries.ByID(id)
		segs, err := d.For(spec.Dataset, false)
		if err != nil {
			return nil, err
		}
		seq, err := spec.Sequential(segs)
		if err != nil {
			return nil, fmt.Errorf("cluster %s sequential: %w", id, err)
		}
		var oneWorkerWall float64
		for _, n := range clusterWorkerCounts {
			q, err := clusterCell(self, env, spec, segs, seq, n)
			if err != nil {
				return nil, fmt.Errorf("cluster %s x%d: %w", id, n, err)
			}
			if n == clusterWorkerCounts[0] {
				oneWorkerWall = q.WallSeconds
			}
			q.SpeedupVsOne = oneWorkerWall / q.WallSeconds
			rep.Cells = append(rep.Cells, *q)
			t.Rows = append(t.Rows, []string{
				id,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.0fms", q.WallSeconds*1000),
				fmtBytes(q.ShuffleIngressBytes),
				fmtBytes(q.ConnEgressBytes),
				fmt.Sprintf("%.0fms", q.PredictedSeconds*1000),
				fmtFactor(q.SpeedupVsOne),
			})
		}
	}

	f, err := os.Create("BENCH_CLUSTER.json")
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return t, nil
}

// clusterCell runs one (query, worker-count) cell: spawn, time, check,
// predict, tear down.
func clusterCell(self string, env []string, spec *queries.Spec,
	segs []*mapreduce.Segment, seq *queries.Run, n int) (*clusterCellResult, error) {
	eps, err := cluster.SpawnWorkers(self, n, cluster.SpawnOptions{Env: env})
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	// Task parallelism must cover the worker count: remote attempts are
	// coordinator-side waits, so the default GOMAXPROCS cap would
	// serialize dispatch on small machines and idle the other workers.
	conf := mapreduce.Config{NumReducers: 4, MaxAttempts: 3, Parallelism: n,
		Trace: Trace, Registry: Registry}
	pool, err := cluster.NewPool(queries.ClusterSpec(spec.ID, conf), eps)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	conf.RemoteMap = pool

	var best *queries.Run
	for round := 0; round <= clusterRounds; round++ {
		r, err := spec.Symple(segs, conf)
		if err != nil {
			return nil, err
		}
		if r.Digest != seq.Digest || r.NumResults != seq.NumResults {
			return nil, fmt.Errorf("digest %x (%d results) != sequential %x (%d)",
				r.Digest, r.NumResults, seq.Digest, seq.NumResults)
		}
		if round == 0 {
			continue // warmup
		}
		if best == nil || r.Metrics.TotalWall < best.Metrics.TotalWall {
			best = r
		}
	}
	pred, err := dcsim.Simulate(clusterLoopback(n), replayJob(best.Metrics))
	if err != nil {
		return nil, err
	}
	stats := pool.Stats()
	var procs []int
	for _, p := range pool.WorkerProcs() {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return &clusterCellResult{
		Query:               spec.ID,
		Workers:             n,
		WallSeconds:         best.Metrics.TotalWall.Seconds(),
		MapWallSeconds:      best.Metrics.MapWall.Seconds(),
		PredictedSeconds:    pred.TotalS,
		PredictedMapS:       pred.MapPhaseS,
		ShuffleBytes:        best.Metrics.ShuffleBytes,
		MapTasks:            len(best.Metrics.MapTasks),
		ShuffleIngressBytes: stats.ShuffleIngressBytes,
		ConnIngressBytes:    stats.ConnIngressBytes,
		ConnEgressBytes:     stats.ConnEgressBytes,
		WorkerProcs:         procs,
	}, nil
}

// clusterLoopback models the spawned-subprocess topology: each worker
// is one node with one core (the pool leases one connection — one
// in-flight map attempt — per worker), and disk/net are generous
// because the "network" is loopback shared memory.
func clusterLoopback(workers int) dcsim.Cluster {
	return dcsim.Cluster{
		Nodes: workers,
		Node:  dcsim.NodeSpec{Cores: 1, DiskMBps: 4000, NetMBps: 4000},
	}
}

// replayJob lifts a run's own measured per-task costs into a dcsim job,
// unscaled — the prediction replays exactly the work the run did.
func replayJob(m *mapreduce.Metrics) dcsim.Job {
	maps := make([]dcsim.MapTask, len(m.MapTasks))
	for i, task := range m.MapTasks {
		maps[i] = dcsim.MapTask{
			InputBytes: task.InputBytes,
			CPUSeconds: task.Duration.Seconds(),
			OutBytes:   task.OutBytes,
		}
	}
	reds := make([]dcsim.ReduceTask, len(m.ReduceTasks))
	for i, task := range m.ReduceTasks {
		reds[i] = dcsim.ReduceTask{CPUSeconds: task.Duration.Seconds()}
	}
	return dcsim.Job{Maps: maps, Reduces: reds}
}

type clusterCellResult struct {
	Query   string `json:"query"`
	Workers int    `json:"workers"`
	// WallSeconds is the best measured end-to-end wall clock;
	// MapWallSeconds its map phase (the part that runs on workers).
	WallSeconds    float64 `json:"wall_seconds"`
	MapWallSeconds float64 `json:"map_wall_seconds"`
	// PredictedSeconds is dcsim's total for this run's measured task
	// costs on Workers single-core nodes; PredictedMapS its map phase.
	PredictedSeconds float64 `json:"dcsim_total_seconds"`
	PredictedMapS    float64 `json:"dcsim_map_seconds"`
	SpeedupVsOne     float64 `json:"speedup_vs_one_worker"`
	ShuffleBytes     int64   `json:"shuffle_bytes"`
	MapTasks         int     `json:"map_tasks"`
	// ShuffleIngressBytes is the run payload that reached the
	// coordinator. Conn counters are raw socket bytes over the pool's
	// lifetime (warmup and every round), framing included.
	ShuffleIngressBytes int64 `json:"coord_shuffle_ingress_bytes"`
	ConnIngressBytes    int64 `json:"coord_conn_ingress_bytes"`
	ConnEgressBytes     int64 `json:"coord_conn_egress_bytes"`
	// WorkerProcs is each worker subprocess's GOMAXPROCS as reported in
	// its map-done replies, sorted.
	WorkerProcs []int `json:"worker_gomaxprocs"`
}

type clusterReport struct {
	Rounds int `json:"rounds"`
	// MaxProcs sizes expectations for the measured column: worker
	// subprocesses share the host's cores, so measured scaling flattens
	// once the worker count passes the physical parallelism — the dcsim
	// column is the n-node-cluster counterfactual.
	MaxProcs  int                 `json:"gomaxprocs"`
	HostCores int                 `json:"host_cores"`
	Warnings  []string            `json:"warnings,omitempty"`
	Cells     []clusterCellResult `json:"cells"`
}
