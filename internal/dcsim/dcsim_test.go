package dcsim

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, label string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %.4f, want %.4f (±%.4f)", label, got, want, tol)
	}
}

func oneNode(cores int) Cluster {
	return Cluster{
		Nodes: 1,
		Node:  NodeSpec{Cores: cores, DiskMBps: 100, NetMBps: 100},
	}
}

func TestSingleTaskPipelined(t *testing.T) {
	// 1GB at 100MB/s = 10s read, 4s CPU: pipelined → 10s.
	r, err := Simulate(oneNode(4), Job{
		Maps: []MapTask{{InputBytes: 1e9, CPUSeconds: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 10, 0.01, "io-bound map phase")
	// CPU-bound task: 2s read, 9s CPU → 9s.
	r, err = Simulate(oneNode(4), Job{
		Maps: []MapTask{{InputBytes: 2e8, CPUSeconds: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 9, 0.01, "cpu-bound map phase")
}

func TestSlotSerialization(t *testing.T) {
	// One core, two pure-CPU 5s tasks: 10s.
	r, err := Simulate(oneNode(1), Job{
		Maps: []MapTask{{CPUSeconds: 5}, {CPUSeconds: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 10, 0.01, "serialized maps")
	// Four cores: parallel → 5s.
	r, err = Simulate(oneNode(4), Job{
		Maps: []MapTask{{CPUSeconds: 5}, {CPUSeconds: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 5, 0.01, "parallel maps")
}

func TestDiskSharing(t *testing.T) {
	// Two io-bound tasks share 100MB/s: 1GB each → 20s total (each sees
	// 50MB/s).
	r, err := Simulate(oneNode(4), Job{
		Maps: []MapTask{
			{InputBytes: 1e9, CPUSeconds: 0.1},
			{InputBytes: 1e9, CPUSeconds: 0.1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 20, 0.1, "shared disk")
}

func TestBandwidthRedistribution(t *testing.T) {
	// A 100MB task and a 1GB task start together at 50MB/s each. The
	// small one finishes at 2s; the big one then gets the full
	// 100MB/s: 2s + 900MB/100MBps = 11s.
	r, err := Simulate(oneNode(4), Job{
		Maps: []MapTask{
			{InputBytes: 1e8, CPUSeconds: 0},
			{InputBytes: 1e9, CPUSeconds: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 11, 0.1, "bandwidth redistribution")
}

func TestRemoteReadCap(t *testing.T) {
	// Disk is 100MB/s but the S3 pipe is 25MB/s per node: 1GB → 40s.
	c := oneNode(4)
	c.RemoteReadMBps = 25
	r, err := Simulate(c, Job{Maps: []MapTask{{InputBytes: 1e9, CPUSeconds: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 40, 0.1, "remote read cap")
}

func TestShuffleBoundByBusiestNIC(t *testing.T) {
	// Two nodes; map on node 0 sends 1GB to a reducer on node 1 at
	// 100MB/s → 10s shuffle.
	c := Cluster{Nodes: 2, Node: NodeSpec{Cores: 2, DiskMBps: 1000, NetMBps: 100}}
	r, err := Simulate(c, Job{
		Maps:    []MapTask{{InputBytes: 1, CPUSeconds: 0.01, OutBytes: []int64{0, 1e9}}},
		Reduces: []ReduceTask{{CPUSeconds: 0.1}, {CPUSeconds: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.ShuffleS, 10, 0.1, "shuffle time")
	if r.ShuffleBytes != 1e9+0 {
		t.Errorf("shuffle bytes %d", r.ShuffleBytes)
	}
}

func TestShuffleLocalDataFree(t *testing.T) {
	// Map on node 0, reducer 0 also on node 0: no network cost.
	c := Cluster{Nodes: 2, Node: NodeSpec{Cores: 2, DiskMBps: 1000, NetMBps: 100}}
	r, err := Simulate(c, Job{
		Maps:    []MapTask{{InputBytes: 1, CPUSeconds: 0.01, OutBytes: []int64{1e9}}},
		Reduces: []ReduceTask{{CPUSeconds: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.ShuffleS, 0, 0.001, "local shuffle")
}

func TestReducePhaseMakespan(t *testing.T) {
	// 3 reduce tasks of 4s on 2 slots → 8s makespan.
	c := Cluster{Nodes: 1, Node: NodeSpec{Cores: 2, DiskMBps: 100, NetMBps: 100}}
	r, err := Simulate(c, Job{
		Reduces: []ReduceTask{{CPUSeconds: 4}, {CPUSeconds: 4}, {CPUSeconds: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.ReducePhaseS, 8, 0.01, "reduce makespan")
}

func TestSchedulingOverheadAdded(t *testing.T) {
	c := oneNode(1)
	c.SchedulingOverheadS = 30
	r, err := Simulate(c, Job{Maps: []MapTask{{CPUSeconds: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.TotalS, 31, 0.01, "scheduling overhead")
}

func TestCPUSecondsAccounted(t *testing.T) {
	r, err := Simulate(oneNode(4), Job{
		Maps:    []MapTask{{CPUSeconds: 3}, {CPUSeconds: 5}},
		Reduces: []ReduceTask{{CPUSeconds: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.CPUSeconds, 10, 0.001, "cpu accounting")
}

func TestInvalidCluster(t *testing.T) {
	if _, err := Simulate(Cluster{}, Job{}); err == nil {
		t.Fatal("expected error for empty cluster")
	}
	if _, err := Simulate(Cluster{Nodes: 1, Node: NodeSpec{Cores: 1}}, Job{}); err == nil {
		t.Fatal("expected error for zero bandwidth")
	}
}

func TestManyWaves(t *testing.T) {
	// 100 cpu tasks of 1s on 1 node × 4 cores = 25 waves → 25s.
	maps := make([]MapTask, 100)
	for i := range maps {
		maps[i] = MapTask{CPUSeconds: 1}
	}
	r, err := Simulate(oneNode(4), Job{Maps: maps})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.MapPhaseS, 25, 0.1, "waves")
}

func TestSymplevsBaselineShapeOnModel(t *testing.T) {
	// Sanity: with identical map costs, the job shuffling 100x less
	// finishes sooner (shuffle + reduce dominate the baseline).
	c := Cluster{Nodes: 5, Node: NodeSpec{Cores: 4, DiskMBps: 100, NetMBps: 50}}
	mkJob := func(shuffleEach int64, reduceCPU float64) Job {
		maps := make([]MapTask, 20)
		for i := range maps {
			maps[i] = MapTask{InputBytes: 5e8, CPUSeconds: 4,
				OutBytes: []int64{shuffleEach, shuffleEach, shuffleEach, shuffleEach, shuffleEach}}
		}
		reds := make([]ReduceTask, 5)
		for i := range reds {
			reds[i] = ReduceTask{CPUSeconds: reduceCPU}
		}
		return Job{Maps: maps, Reduces: reds}
	}
	base, err := Simulate(c, mkJob(4e8, 30))
	if err != nil {
		t.Fatal(err)
	}
	symp, err := Simulate(c, mkJob(1e4, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if symp.TotalS >= base.TotalS {
		t.Fatalf("symple-shaped job (%.1fs) not faster than baseline-shaped (%.1fs)",
			symp.TotalS, base.TotalS)
	}
}

func TestFaultKnobsOffMatchSeedModel(t *testing.T) {
	// The simulator models no task failure (the engine's fault plan is
	// measured, not simulated): a job's compute is its tasks' CPU exactly,
	// with input, shuffle and reduce present, as in the seed model.
	c := oneNode(4)
	job := Job{
		Maps: []MapTask{
			{InputBytes: 5e8, CPUSeconds: 3, OutBytes: []int64{1e6, 2e6}},
			{InputBytes: 5e8, CPUSeconds: 7, OutBytes: []int64{2e6, 1e6}},
		},
		Reduces: []ReduceTask{{CPUSeconds: 2}, {CPUSeconds: 3}},
	}
	r, err := Simulate(c, job)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, r.CPUSeconds, 15, 0.01, "clean cpu total")
}
