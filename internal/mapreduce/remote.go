package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Remote map execution. User MapFuncs are closures and cannot cross a
// process boundary, so cluster mode splits the map attempt in two: the
// coordinator keeps the whole task lifecycle — retries with backoff,
// speculation, the first-finisher-wins commit — and delegates only the
// attempt body (run the map, sort, encode) to a RemoteMapper. Worker
// death and connection drops surface as attempt errors and are retried
// or speculated exactly like an injected fault; a worker whose output
// never commits cannot perturb the merged stream.

// MapOutput is one executed map attempt's result, wherever its body ran:
// the encoded runs plus the task metrics. Runs hold the segcodec wire
// form — byte-identical for an in-process and a worker attempt over the
// same segment, which is what makes placement invisible to reducers.
type MapOutput struct {
	Runs []Run
	// pairs is a map-only attempt's output instead of runs: the records
	// it emitted, in emit order.
	pairs   []kvRec
	Emitted int64 // shuffle records across all partitions
	Records int64 // input records consumed
	// InputBytes is the segment payload the worker read.
	InputBytes int64
	// Duration is the worker-measured attempt time; it feeds the
	// speculation watchdog's straggler medians and MetricMapTaskNS.
	Duration time.Duration
	// LogicalOutBytes is the per-partition legacy-framing volume
	// (Metrics.ShuffleLogicalBytes), computed at the worker where the
	// records exist.
	LogicalOutBytes []int64
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

// ReducedGroup is one key group as merged (and, when a combiner is
// registered, folded) on the partition's owning worker. Rows keep the
// (MapperID, RecordID) ordering the §5.4 contract requires; after a
// successful combine a group is a single row holding the composed
// summary bundle.
type ReducedGroup struct {
	Key  string
	Rows []Shuffled
}

// ReduceOutput is one worker-resident reduce attempt's result: the
// partition's groups in ascending key order, ready for the coordinator
// to feed the user ReduceFunc.
type ReduceOutput struct {
	Groups []ReducedGroup
	// Worker identifies the worker that ran the merge — the partition's
	// owner. It lands on the re-parented spans as the worker attr, which
	// the verifier's owner-decode invariant joins against part_owner.
	Worker int
	// Spans are the worker-side trace spans covering the attempt
	// (seg_decode per run, combine per folded group). May be nil.
	Spans []*obs.Span
}

// RemoteReducer executes reduce attempt bodies on the worker owning the
// partition. commits lists the committed runs for the partition as
// receipts (nil Seg); the worker holds the bytes, pushed to it by map
// workers. faults are the attempt's, for the owner to fire. Like RunMap,
// a non-nil error fails the attempt, not the task.
type RemoteReducer interface {
	RunReduce(ctx context.Context, part, attempt int, commits []Run, faults AttemptFaults) (*ReduceOutput, error)
}

// ExecuteMap runs one map attempt locally and publishes each non-empty
// partition's encoded run into sink. It is the worker-side half of
// remote execution and runs the engine's own attempt body (executeMap),
// so a run produced here is byte-identical to one an in-process attempt
// produces over the same segment.
//
// task and attempt label the published runs and trace spans; trace may
// be nil; faults are the attempt's, fired as an in-process attempt fires
// them. The returned MapOutput carries metrics only (Runs stays nil —
// the runs went through sink, which may have streamed them away).
func ExecuteMap(mapFn MapFunc, seg *Segment, task, attempt, numParts int,
	compress bool, trace *obs.Trace, sink RunSink, faults ...Fault) (*MapOutput, error) {
	conf := Config{NumReducers: max(numParts, 1), CompressShuffle: compress, Trace: trace}
	return executeMap(context.Background(), mapFn, seg, task, attempt, conf, sink, faults)
}

// adopt checks an attempt body's output — run here or on a worker — and
// labels its runs as this task's and attempt's. In the worker-to-worker
// topology the run bytes went straight to each partition's owning worker
// and what comes back are Seg-less receipts; commit publishes them so the
// reduce side knows exactly which (task, attempt, part) runs the winning
// attempt placed. Otherwise the runs are whole. Either way: one run per
// partition at most.
func (env *runEnv) adopt(st *mapTask, attempt int, out *MapOutput) error {
	n, receipts := env.conf.NumReducers, env.conf.RemoteReduce != nil
	seen := make([]bool, n)
	for i := range out.Runs {
		r := &out.Runs[i]
		if r.Part < 0 || r.Part >= n || seen[r.Part] || r.Bytes <= 0 || (r.Seg == nil) != receipts {
			return fmt.Errorf("mapreduce %q: map task %d attempt %d returned invalid run (part %d of %d, receipts %v)",
				env.job.Name, st.id, attempt, r.Part, n, receipts)
		}
		seen[r.Part] = true
		r.Task, r.Attempt = st.id, attempt
	}
	// Re-parent a worker's spans under the coordinator job root only for
	// an attempt that came back whole; a dying worker's half-trace is
	// discarded with the attempt.
	env.emitRemote(out.Spans, -1)
	return nil
}

// emitRemote re-parents spans a worker shipped back under the job root,
// tagged remote and, at a partition owner (worker ≥ 0), with its worker.
func (env *runEnv) emitRemote(spans []*obs.Span, worker int) {
	for _, sp := range spans {
		if sp == nil {
			continue
		}
		sp.ID = 0 // EmitRaw reassigns from the coordinator's sequence
		sp.Parent = env.trace.CurrentJob()
		sp.SetTag(obs.TagRemote, "1")
		if worker >= 0 {
			sp.SetAttr(obs.AttrWorker, int64(worker))
		}
		env.trace.EmitRaw(sp)
	}
}

// runRemoteReduceTask is the reduce task in worker-to-worker mode: the
// same lifecycle as runReduceTask (driveReduceTask), but the attempt body
// — decode, k-way merge, optional combine — runs on the partition's
// owning worker. The coordinator receives only final groups and feeds
// them to the user ReduceFunc locally, so reducers (and their
// idempotency contract) are unchanged.
func (env *runEnv) runRemoteReduceTask(p int, commits []Run) (groups int64, err error) {
	// Receipts drain off the transport in commit order, which varies with
	// scheduling; the worker decodes in the order given, so fix it for
	// deterministic span streams. Merge output is order-independent
	// either way (distinct tasks mean distinct mapperIDs).
	sort.Slice(commits, func(i, j int) bool { return commits[i].Task < commits[j].Task })
	groupHist := env.reg.Histogram(MetricGroupValues)
	return env.driveReduceTask(p, func(a int, faults AttemptFaults) (int64, error) {
		out, err := env.conf.RemoteReduce.RunReduce(env.ctx, p, a, commits, faults)
		if err != nil {
			return 0, err
		}
		return int64(len(out.Groups)), env.deliverRemoteGroups(p, out, groupHist)
	})
}

// deliverRemoteGroups feeds a worker-reduced partition to the user
// ReduceFunc, then — only once the whole partition has reduced cleanly —
// re-parents the worker's spans and records the partition's owner. Span
// emission after the last Reduce call keeps a failed attempt's decode
// spans out of the trace, which the run-merged-once invariant requires
// (the successful retry re-decodes the same runs).
func (env *runEnv) deliverRemoteGroups(p int, out *ReduceOutput, groupHist *obs.Histogram) error {
	j := env.job
	for _, g := range out.Groups {
		groupHist.Observe(int64(len(g.Rows)))
		if err := j.Reduce(p, g.Key, g.Rows); err != nil {
			return fmt.Errorf("mapreduce %q: reduce task %d key %q: %w", j.Name, p, g.Key, err)
		}
	}
	env.emitRemote(out.Spans, out.Worker)
	env.trace.Start(obs.KindPartOwner, fmt.Sprintf("part-%d", p)).
		Attr(obs.AttrPart, int64(p)).Attr(obs.AttrWorker, int64(out.Worker)).End()
	return nil
}

// validateRemote rejects job shapes the remote paths cannot honor:
// worker-resident reduce consumes runs pushed by worker-resident maps, a
// worker ships runs, never a map-only job's pairs, and the external-sort
// baseline lives inside the in-process attempt body.
func validateRemote(conf Config, mapOnly bool) error {
	switch {
	case conf.RemoteMap == nil && conf.RemoteReduce != nil:
		return errors.New("RemoteReduce requires RemoteMap (worker-resident reduce consumes runs pushed by worker-resident maps)")
	case conf.RemoteMap == nil:
		return nil
	case mapOnly:
		return errors.New("RemoteMap is incompatible with a map-only job (workers ship runs for a Reduce to merge)")
	case conf.ExternalSort:
		return errors.New("RemoteMap is incompatible with ExternalSort (workers ship pre-sorted runs)")
	}
	return nil
}
