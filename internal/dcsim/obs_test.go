package dcsim

import (
	"testing"

	"repro/internal/obs"
)

// replayJob builds a job with uneven tasks so the replayed schedule has
// waves, stragglers and real shuffle traffic.
func replayJob(maps, reduces int) Job {
	j := Job{}
	for i := 0; i < maps; i++ {
		out := make([]int64, reduces)
		for r := range out {
			out[r] = int64(1e6 * (1 + (i+r)%3))
		}
		j.Maps = append(j.Maps, MapTask{
			InputBytes: int64(5e8 + 1e8*float64(i%4)),
			CPUSeconds: 2 + float64(i%5),
			OutBytes:   out,
		})
	}
	for r := 0; r < reduces; r++ {
		j.Reduces = append(j.Reduces, ReduceTask{CPUSeconds: 1 + float64(r%3)})
	}
	return j
}

// TestSimulatedTraceVerifies replays simulated schedules as trace spans
// and requires them to pass the same obs.Verifier invariants as live
// engine traces: span clocks, containment in the job span, and the
// cpu-bound invariant (Σ task time ≤ makespan × slots) — which for the
// simulator is a direct check that its schedules never oversubscribe
// the modeled cluster.
func TestSimulatedTraceVerifies(t *testing.T) {
	cases := []struct {
		name string
		c    Cluster
	}{
		{"basic", Cluster{Nodes: 4, Node: NodeSpec{Cores: 2, DiskMBps: 200, NetMBps: 100}}},
		{"overhead", Cluster{Nodes: 2, Node: NodeSpec{Cores: 4, DiskMBps: 100, NetMBps: 100},
			SchedulingOverheadS: 12}},
		{"remote-read", Cluster{Nodes: 4, Node: NodeSpec{Cores: 2, DiskMBps: 400, NetMBps: 100},
			RemoteReadMBps: 50}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.NewMemSink()
			tc.c.Trace = obs.NewTrace(sink)
			j := replayJob(13, 5)
			res, err := Simulate(tc.c, j)
			if err != nil {
				t.Fatal(err)
			}
			spans := sink.Spans()
			if err := (obs.Verifier{}).Check(spans); err != nil {
				t.Fatalf("replayed trace failed verification: %v", err)
			}
			var jobSpan *obs.Span
			mapSpans, redSpans := 0, 0
			for _, sp := range spans {
				switch sp.Kind {
				case obs.KindJob:
					jobSpan = sp
				case obs.KindMapAttempt:
					mapSpans++
				case obs.KindReduceAttempt:
					redSpans++
				}
				if sp.Tag(obs.TagSim) != "1" {
					t.Errorf("span %s/%s missing sim tag", sp.Kind, sp.Name)
				}
			}
			if jobSpan == nil {
				t.Fatal("no job span")
			}
			if mapSpans != len(j.Maps) || redSpans != len(j.Reduces) {
				t.Errorf("replayed %d map / %d reduce spans, want %d / %d",
					mapSpans, redSpans, len(j.Maps), len(j.Reduces))
			}
			if got, want := int64(jobSpan.Duration()), int64(res.TotalS*1e9); got != want {
				t.Errorf("job span duration %d ns, TotalS is %d ns", got, want)
			}
		})
	}
}

// TestUntracedSimulateUnchanged pins that tracing is strictly an output:
// the same simulation with and without a trace attached produces an
// identical Result (zero simulated cost).
func TestUntracedSimulateUnchanged(t *testing.T) {
	c := Cluster{Nodes: 3, Node: NodeSpec{Cores: 2, DiskMBps: 150, NetMBps: 80},
		SchedulingOverheadS: 2}
	j := replayJob(9, 4)
	plain, err := Simulate(c, j)
	if err != nil {
		t.Fatal(err)
	}
	c.Trace = obs.NewTrace(obs.NewMemSink())
	traced, err := Simulate(c, j)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Errorf("tracing changed the simulation: %+v vs %+v", plain, traced)
	}
}
