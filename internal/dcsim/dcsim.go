// Package dcsim is a discrete-event (fluid) datacenter simulator used to
// replay measured MapReduce task costs at cluster scale.
//
// The paper evaluates SYMPLE on clusters we do not have: Amazon Elastic
// MapReduce instances reading from S3 (§6.3) and a 380-node shared Hadoop
// cluster (§6.4). The in-process engine measures per-task CPU seconds and
// exact shuffle bytes; this package maps those costs onto a modeled
// cluster — nodes with core slots, disk bandwidth, NIC bandwidth, and an
// optional per-node remote-store (S3) bandwidth cap — to produce
// end-to-end job latency. Because both the baseline and SYMPLE jobs are
// replayed through the same model, the comparison (who wins, by how
// much, and where reads dominate compute) is preserved even though
// absolute numbers are synthetic.
//
// Execution model, deliberately close to stock Hadoop:
//
//  1. Map phase: map tasks are scheduled FIFO onto free core slots. A
//     running task pipelines input reading with computation; it finishes
//     when both its bytes and its CPU seconds are done. IO bandwidth is
//     shared equally among a node's running readers and capped per node
//     by the remote store when reads are remote.
//  2. Shuffle: starts when the map phase ends (no slow-start overlap);
//     its duration is bounded by the most loaded NIC, egress or ingress.
//  3. Reduce phase: reduce tasks scheduled FIFO onto slots, pure CPU
//     (sort cost is folded into the measured reduce CPU).
//
// Plus a fixed scheduling overhead, dominant on the shared 380-node
// cluster per §6.4.
package dcsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// NodeSpec describes one machine.
type NodeSpec struct {
	Cores    int
	DiskMBps float64 // local read bandwidth
	NetMBps  float64 // NIC bandwidth, each direction
}

// Cluster describes the modeled datacenter.
type Cluster struct {
	Nodes int
	Node  NodeSpec

	// RemoteReadMBps, when positive, caps each node's input reads (the
	// S3 connection of the EMR experiments). Zero means inputs are on
	// local disk.
	RemoteReadMBps float64

	// SchedulingOverheadS is added once per job (shared-cluster queueing,
	// JVM spin-up, etc.).
	SchedulingOverheadS float64

	// Trace, when non-nil, receives a synthetic replay of the simulated
	// schedule: a job span covering [0, TotalS] plus one span per
	// map/reduce task at its simulated start/end, all on a nanosecond
	// clock anchored at epoch zero (simulated seconds × 1e9) and tagged
	// sim=1. Emission happens after the simulation completes, so tracing
	// charges zero simulated cost; replayed traces satisfy the same
	// obs.Verifier invariants as live engine traces.
	Trace *obs.Trace
}

// MapTask is one map task's replayed cost.
type MapTask struct {
	InputBytes int64
	CPUSeconds float64
	// OutBytes[r] is the shuffle payload destined to reducer r — the
	// encoded segment bytes that actually cross the network.
	OutBytes []int64
}

// ReduceTask is one reduce task's replayed cost. Its shuffle ingress is
// derived from the map tasks' OutBytes.
type ReduceTask struct {
	CPUSeconds float64
}

// Job is a complete MapReduce job to simulate.
type Job struct {
	Maps    []MapTask
	Reduces []ReduceTask
}

// Result is the simulated outcome.
type Result struct {
	MapPhaseS    float64
	ShuffleS     float64
	ReducePhaseS float64
	TotalS       float64
	CPUSeconds   float64 // total compute consumed (map + reduce)
	ShuffleBytes int64
}

// Simulate runs the job on the cluster.
func Simulate(c Cluster, j Job) (Result, error) {
	if c.Nodes <= 0 || c.Node.Cores <= 0 {
		return Result{}, fmt.Errorf("dcsim: cluster must have nodes and cores")
	}
	if c.Node.DiskMBps <= 0 || c.Node.NetMBps <= 0 {
		return Result{}, fmt.Errorf("dcsim: node bandwidths must be positive")
	}
	var res Result

	// ---- Map phase: fluid simulation with shared IO ----
	mapS, mapIv := simulateMapPhase(c, j.Maps)
	res.MapPhaseS = mapS

	// ---- Shuffle ----
	numReducers := len(j.Reduces)
	egress := make([]float64, c.Nodes) // bytes leaving each node
	ingress := make([]float64, c.Nodes)
	var shuffleBytes int64
	for i, m := range j.Maps {
		node := i % c.Nodes
		for r, b := range m.OutBytes {
			if numReducers == 0 {
				break
			}
			rnode := r % c.Nodes
			shuffleBytes += b
			if rnode == node {
				continue // local: no network
			}
			egress[node] += float64(b)
			ingress[rnode] += float64(b)
		}
	}
	res.ShuffleBytes = shuffleBytes
	net := c.Node.NetMBps * 1e6
	var worst float64
	for n := 0; n < c.Nodes; n++ {
		if t := egress[n] / net; t > worst {
			worst = t
		}
		if t := ingress[n] / net; t > worst {
			worst = t
		}
	}
	res.ShuffleS = worst

	// ---- Reduce phase: pure CPU on slots ----
	reduceS, redIv := simulateCPUPhase(c, j.Reduces)
	res.ReducePhaseS = reduceS

	// Total compute: the useful work.
	for _, m := range j.Maps {
		res.CPUSeconds += m.CPUSeconds
	}
	for _, r := range j.Reduces {
		res.CPUSeconds += r.CPUSeconds
	}
	res.TotalS = c.SchedulingOverheadS + res.MapPhaseS + res.ShuffleS + res.ReducePhaseS
	c.emitSimTrace(j, res, mapIv, redIv)
	return res, nil
}

// interval is one simulated task's lifetime within its phase, in
// seconds relative to the phase start.
type interval struct {
	start, end float64
}

// emitSimTrace replays the simulated schedule as trace spans (see
// Cluster.Trace). Map intervals are offset by the scheduling overhead
// and reduce intervals additionally by the map and shuffle phases, so
// every task span nests inside the job span exactly as a live trace
// would.
func (c Cluster) emitSimTrace(j Job, res Result, mapIv, redIv []interval) {
	tr := c.Trace
	if tr == nil {
		return
	}
	const ns = 1e9
	emit := func(sp *obs.Span, task int) {
		if task >= 0 {
			sp.SetAttr(obs.AttrTask, int64(task))
			sp.SetAttr(obs.AttrAttempt, 0)
		}
		sp.SetTag(obs.TagSim, "1")
		sp.SetTag(obs.TagOutcome, "ok")
		tr.EmitRaw(sp)
	}
	job := &obs.Span{ID: tr.NewID(), Kind: obs.KindJob, Name: "dcsim", Start: 0, End: int64(res.TotalS * ns)}
	job.SetAttr(obs.AttrParallelism, int64(c.Nodes*c.Node.Cores))
	job.SetAttr(obs.AttrWireBytes, res.ShuffleBytes)
	job.SetAttr(obs.AttrLogicalBytes, res.ShuffleBytes)
	emit(job, -1)
	mapOff := c.SchedulingOverheadS
	for i, iv := range mapIv {
		sp := &obs.Span{Parent: job.ID, Kind: obs.KindMapAttempt, Name: fmt.Sprintf("map-%d", i),
			Start: int64((mapOff + iv.start) * ns), End: int64((mapOff + iv.end) * ns)}
		sp.SetAttr(obs.AttrBytes, j.Maps[i].InputBytes)
		emit(sp, i)
	}
	redOff := mapOff + res.MapPhaseS + res.ShuffleS
	for i, iv := range redIv {
		emit(&obs.Span{Parent: job.ID, Kind: obs.KindReduceAttempt, Name: fmt.Sprintf("reduce-%d", i),
			Start: int64((redOff + iv.start) * ns), End: int64((redOff + iv.end) * ns)}, i)
	}
}

// runningTask is a map task in flight during the fluid simulation.
type runningTask struct {
	idx    int
	node   int
	start  float64 // schedule time, for the trace replay
	ioRem  float64 // bytes left to read
	cpuRem float64 // seconds left to compute
}

// simulateMapPhase schedules map tasks FIFO onto core slots and advances
// a fluid model where each running task's IO rate is its equal share of
// its node's read bandwidth (the remote cap, when set), and its
// CPU rate is one dedicated core. A task completes when both resources
// are drained (read and compute are pipelined). The returned intervals
// give each task's scheduled lifetime, indexed like maps.
func simulateMapPhase(c Cluster, maps []MapTask) (float64, []interval) {
	iv := make([]interval, len(maps))
	if len(maps) == 0 {
		return 0, iv
	}
	perNodeRead := c.Node.DiskMBps * 1e6
	if c.RemoteReadMBps > 0 {
		perNodeRead = c.RemoteReadMBps * 1e6
	}
	slotsFree := make([]int, c.Nodes)
	for n := range slotsFree {
		slotsFree[n] = c.Node.Cores
	}
	readersOnNode := make([]int, c.Nodes)

	next := 0 // next task to schedule; task i is pinned to node i%Nodes
	var running []runningTask
	now := 0.0

	schedule := func() {
		for next < len(maps) {
			node := next % c.Nodes
			if slotsFree[node] == 0 {
				// FIFO with pinned placement: stop at the first task
				// whose node is busy (input splits live where they
				// live). This models wave-based map execution.
				break
			}
			slotsFree[node]--
			t := runningTask{
				idx:    next,
				node:   node,
				start:  now,
				ioRem:  float64(maps[next].InputBytes),
				cpuRem: maps[next].CPUSeconds,
			}
			if t.ioRem > 0 {
				readersOnNode[node]++
			}
			running = append(running, t)
			next++
		}
	}
	schedule()

	for len(running) > 0 {
		// Per-task rates under the current task set.
		rates := make([]float64, len(running))
		dt := math.Inf(1)
		for i := range running {
			t := &running[i]
			rate := 0.0
			if t.ioRem > 0 {
				rate = perNodeRead / float64(readersOnNode[t.node])
			}
			rates[i] = rate
			// Completion time under constant rates: both pipes must
			// drain.
			fin := t.cpuRem
			if t.ioRem > 0 {
				if rate == 0 {
					fin = math.Inf(1)
				} else if io := t.ioRem / rate; io > fin {
					fin = io
				}
			}
			if fin < dt {
				dt = fin
			}
		}
		if math.IsInf(dt, 1) || dt < 0 {
			// Cannot happen with positive bandwidths; guard anyway.
			break
		}
		now += dt
		// Advance everyone and retire completed tasks.
		alive := running[:0]
		for i := range running {
			t := running[i]
			if t.ioRem > 0 {
				t.ioRem -= rates[i] * dt
				if t.ioRem <= 1e-9 {
					t.ioRem = 0
					readersOnNode[t.node]--
				}
			}
			t.cpuRem -= dt
			if t.cpuRem <= 1e-9 {
				t.cpuRem = 0
			}
			if t.ioRem == 0 && t.cpuRem == 0 {
				slotsFree[t.node]++
				iv[t.idx] = interval{start: t.start, end: now}
			} else {
				alive = append(alive, t)
			}
		}
		running = alive
		schedule()
	}
	return now, iv
}

// simulateCPUPhase packs pure-CPU tasks onto the cluster's slots (LPT
// list scheduling) and returns the makespan and each task's scheduled
// interval (indexed like tasks).
func simulateCPUPhase(c Cluster, tasks []ReduceTask) (makespan float64, iv []interval) {
	iv = make([]interval, len(tasks))
	if len(tasks) == 0 {
		return 0, iv
	}
	slots := c.Nodes * c.Node.Cores
	type job struct {
		idx int
		dur float64
	}
	durs := make([]job, len(tasks))
	for i, t := range tasks {
		durs[i] = job{idx: i, dur: t.CPUSeconds}
	}
	sort.SliceStable(durs, func(a, b int) bool { return durs[a].dur > durs[b].dur })
	if len(durs) < slots {
		slots = len(durs)
	}
	if slots == 0 {
		return 0, iv
	}
	// Greedy longest-processing-time onto least-loaded slot.
	loads := make([]float64, slots)
	for _, d := range durs {
		min := 0
		for s := 1; s < slots; s++ {
			if loads[s] < loads[min] {
				min = s
			}
		}
		iv[d.idx] = interval{start: loads[min], end: loads[min] + d.dur}
		loads[min] += d.dur
	}
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return makespan, iv
}
