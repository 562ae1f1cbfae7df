package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Remote map execution. User MapFuncs are closures and cannot cross a
// process boundary, so cluster mode splits the map attempt in two: the
// coordinator keeps the whole task lifecycle — retries with backoff,
// speculation, the first-finisher-wins commit — and the whole reduce,
// and delegates only the attempt body (run the map, partition, encode) to a
// RemoteMapper. Worker death and connection drops surface as attempt
// errors and are retried or speculated exactly like an injected fault; a
// worker whose output never commits cannot perturb the grouped stream.

// MapOutput is one executed map attempt's result, wherever its body ran:
// the encoded runs plus the task metrics. Runs hold the segcodec wire
// form — byte-identical for an in-process and a worker attempt over the
// same segment, which is what makes placement invisible to reducers.
type MapOutput struct {
	Runs []Run
	// scratch is a map-only attempt's, holding its output instead of
	// runs: the records it emitted, in emit order, in scratch.parts[0].
	scratch *mapScratch
	Emitted int64 // shuffle records across all partitions
	// Duration is the worker-measured attempt time; it feeds the
	// speculation watchdog's straggler medians and MetricMapTaskNS.
	Duration time.Duration
	// LogicalOutBytes is the attempt's output in the legacy framing
	// (Metrics.ShuffleLogicalBytes), computed where the records exist.
	LogicalOutBytes int64
	// Spans are the worker-side trace spans covering this attempt
	// (map parse/exec chunks, spill encode), shipped back for
	// re-parenting under the coordinator's job root. May be nil.
	Spans []*obs.Span
}

// RemoteMapper executes map attempts out of process. RunMap must be
// safe for concurrent calls (the engine runs attempts in parallel up to
// Config.Parallelism) and must honor ctx cancellation. faults are what
// the job's plan armed for the attempt: the mapper fires those on its
// own side (PointRunRecv) and carries the rest to where the body runs.
// A non-nil error fails the attempt, not the task: the task lifecycle
// retries.
type RemoteMapper interface {
	RunMap(ctx context.Context, task, attempt int, seg *Segment, faults AttemptFaults) (*MapOutput, error)
}

// ExecuteMap runs one map attempt locally — the worker-side half of
// remote execution, on the engine's own attempt body (executeMap), so its
// runs are byte-identical to an in-process attempt's over the same
// segment — and publishes each non-empty partition's encoded run into
// sink. task and attempt label the runs and trace spans; trace may be
// nil; faults are the attempt's. The returned MapOutput carries metrics
// only: the runs went through sink. compress must be false (a segment
// has one wire form); the parameter stays for benchmark/ledger.go.
func ExecuteMap(mapFn MapFunc, seg *Segment, task, attempt, numParts int,
	compress bool, trace *obs.Trace, sink RunSink, faults ...Fault) (*MapOutput, error) {
	if compress {
		return nil, errors.New("mapreduce: ExecuteMap: compressed segments are retired; pass compress=false")
	}
	conf := Config{NumReducers: max(numParts, 1), Trace: trace}
	return executeMap(context.Background(), mapFn, seg, task, attempt, conf, sink, faults)
}

// adopt checks an attempt body's output — run here or on a worker — and
// labels its runs as this task's and attempt's: at most one whole run
// per partition.
func (env *runEnv) adopt(st *mapTask, attempt int, out *MapOutput) error {
	n := env.conf.NumReducers
	seen := make([]bool, n)
	for i := range out.Runs {
		r := &out.Runs[i]
		if r.Part < 0 || r.Part >= n || seen[r.Part] || len(r.Seg) == 0 {
			return fmt.Errorf("mapreduce %q: map task %d attempt %d returned invalid run (part %d of %d)",
				env.job.Name, st.id, attempt, r.Part, n)
		}
		seen[r.Part] = true
		r.Task, r.Attempt = st.id, attempt
	}
	// Re-parent a worker's spans under the coordinator job root only for
	// an attempt that came back whole, tagged remote; a dying worker's
	// half-trace is discarded with the attempt.
	for _, sp := range out.Spans {
		if sp == nil {
			continue
		}
		sp.ID = 0 // EmitRaw reassigns from the coordinator's sequence
		sp.Parent = env.conf.Trace.CurrentJob()
		sp.SetTag(obs.TagRemote, "1")
		env.conf.Trace.EmitRaw(sp)
	}
	return nil
}

// validateRemote rejects the one job shape the remote path cannot
// honor: a worker ships runs, never a map-only job's pairs.
func validateRemote(conf Config, mapOnly bool) error {
	if conf.RemoteMap != nil && mapOnly {
		return errors.New("RemoteMap is incompatible with a map-only job (workers ship runs for a Reduce to merge)")
	}
	return nil
}
