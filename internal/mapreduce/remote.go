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

// MapOutput is one remotely executed map attempt's result: the encoded
// runs plus the task metrics the coordinator would have measured
// locally. Runs hold the segcodec wire form — byte-identical to what an
// in-process attempt over the same segment encodes, which is what makes
// placement invisible to reducers.
type MapOutput struct {
	Runs    []Run
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
// Config.Parallelism) and must honor ctx cancellation. A non-nil error
// fails the attempt, not the task: the task lifecycle retries.
type RemoteMapper interface {
	RunMap(ctx context.Context, task, attempt int, seg *Segment) (*MapOutput, error)
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
// workers. Like RunMap, a non-nil error fails the attempt, not the
// task.
type RemoteReducer interface {
	RunReduce(ctx context.Context, part, attempt int, commits []Run) (*ReduceOutput, error)
}

// ExecuteMap runs one map attempt locally and publishes each non-empty
// partition's encoded run into sink. It is the worker-side half of
// remote execution and mirrors the engine's in-process attempt path —
// same emit sequence numbering, same per-partition spill sort, same
// segcodec encoding — so a run produced here is byte-identical to one
// produced by runMapAttempt over the same segment.
//
// task and attempt label the published runs and trace spans; trace may
// be nil. The returned MapOutput carries metrics only (Runs stays nil —
// the runs went through sink, which may have streamed them away).
func ExecuteMap(mapFn MapFunc, seg *Segment, task, attempt, numParts int,
	compress bool, trace *obs.Trace, sink RunSink) (*MapOutput, error) {
	if numParts <= 0 {
		numParts = 1
	}
	t0 := time.Now()
	parts := make([][]kvRec, numParts)
	logical := make([]int64, numParts)
	discardParts := func() {
		for p := range parts {
			if parts[p] != nil {
				kvBufs.put(parts[p])
				parts[p] = nil
			}
		}
	}
	var seq int64
	emit := func(key string, recordID int64, value []byte) {
		rec := kvRec{key: key, mapperID: seg.ID, recordID: recordID, seq: seq, value: value}
		seq++
		p := partition(key, numParts)
		buf := parts[p]
		if buf == nil {
			buf = kvBufs.get(0)
		}
		parts[p] = append(buf, rec)
		logical[p] += rec.wireSize()
	}
	if err := mapFn(seg.ID, seg, emit); err != nil {
		discardParts()
		return nil, err
	}
	out := &MapOutput{
		Records:         int64(len(seg.Records)),
		InputBytes:      seg.Bytes(),
		LogicalOutBytes: logical,
	}
	encSpan := trace.Start(obs.KindSpillEncode, fmt.Sprintf("map-%d", task)).
		Attr(obs.AttrTask, int64(task)).Attr(obs.AttrAttempt, int64(attempt))
	var encBytes int64
	for p := range parts {
		if parts[p] == nil {
			continue
		}
		if len(parts[p]) == 0 {
			kvBufs.put(parts[p])
			parts[p] = nil
			continue
		}
		out.Emitted += int64(len(parts[p]))
		sortRun(parts[p])
		sg := encodeSegment(parts[p], compress)
		kvBufs.put(parts[p])
		parts[p] = nil
		encBytes += int64(len(sg))
		if err := sink.Publish(Run{Task: task, Attempt: attempt, Part: p,
			Bytes: int64(len(sg)), Seg: sg}); err != nil {
			encSpan.Tag("outcome", "error").End()
			discardParts()
			return nil, err
		}
	}
	encSpan.Attr(obs.AttrBytes, encBytes).End()
	out.Duration = time.Since(t0)
	return out, nil
}

// runRemoteMapAttempt is the attempt body in cluster mode: delegate the
// map to Config.RemoteMap and adapt its output into the same
// attemptResult an in-process attempt builds, so commit and the reduce
// side cannot tell where the work ran.
func (env *runEnv) runRemoteMapAttempt(st *mapTask, attempt int) (*attemptResult, error) {
	conf := env.conf
	out, err := conf.RemoteMap.RunMap(env.ctx, st.id, attempt, st.seg)
	if err != nil {
		return nil, err
	}
	res := &attemptResult{emitted: out.Emitted, runs: make([]Run, 0, len(out.Runs))}
	wireOut := make([]int64, conf.NumReducers)
	// Worker-to-worker topology: the run bytes went straight to each
	// partition's owning worker and what comes back are Seg-less receipts;
	// commit publishes them so the reduce side knows exactly which (task,
	// attempt, part) runs the winning attempt placed. Via-coordinator, the
	// runs come back whole. Either way: one run per partition at most.
	receipts := conf.RemoteReduce != nil
	for _, r := range out.Runs {
		if r.Part < 0 || r.Part >= conf.NumReducers || wireOut[r.Part] != 0 ||
			r.Bytes <= 0 || (r.Seg == nil) != receipts {
			return nil, fmt.Errorf("mapreduce %q: remote map task %d attempt %d returned invalid run (part %d of %d, receipts %v)",
				env.job.Name, st.id, attempt, r.Part, conf.NumReducers, receipts)
		}
		res.runs = append(res.runs, Run{Task: st.id, Attempt: attempt,
			Part: r.Part, Bytes: r.Bytes, Seg: r.Seg})
		wireOut[r.Part] = r.Bytes
	}
	logical := out.LogicalOutBytes
	if len(logical) != conf.NumReducers {
		logical = make([]int64, conf.NumReducers)
	}
	dur := out.Duration
	if dur <= 0 {
		dur = time.Nanosecond // keep the speculation median well-defined
	}
	res.task = TaskMetrics{
		Duration:        dur,
		InputBytes:      st.seg.Bytes(),
		Records:         int64(len(st.seg.Records)),
		OutBytes:        wireOut,
		LogicalOutBytes: logical,
	}
	// Re-parent the worker's spans under the coordinator job root only
	// for an attempt that came back whole; a dying worker's half-trace
	// is discarded with the attempt.
	for _, sp := range out.Spans {
		if sp == nil {
			continue
		}
		sp.ID = 0 // EmitRaw reassigns from the coordinator's sequence
		sp.Parent = env.trace.CurrentJob()
		if sp.Tags == nil {
			sp.Tags = map[string]string{}
		}
		sp.Tags["remote"] = "1"
		env.trace.EmitRaw(sp)
	}
	return res, nil
}

// runRemoteReduceTask is the reduce lifecycle in worker-to-worker mode:
// the same retry/backoff budget and commit span as runReduceTask, but
// the attempt body — decode, k-way merge, optional combine — runs on
// the partition's owning worker. The coordinator receives only final
// groups and feeds them to the user ReduceFunc locally, so reducers
// (and their idempotency contract) are unchanged.
func (env *runEnv) runRemoteReduceTask(p int, commits []Run) (groups int64, err error) {
	conf := env.conf
	// Receipts drain off the transport in commit order, which varies with
	// scheduling; the worker decodes in the order given, so fix it for
	// deterministic span streams. Merge output is order-independent
	// either way (distinct tasks mean distinct mapperIDs).
	sort.Slice(commits, func(i, j int) bool { return commits[i].Task < commits[j].Task })
	groupHist := env.reg.Histogram(MetricGroupValues)
	var attemptErrs []error
	for a := 0; a < conf.MaxAttempts; a++ {
		if env.ctx.Err() != nil {
			return 0, env.ctx.Err()
		}
		if a > 0 {
			env.retries.Add(1)
			if serr := sleepCtx(env.ctx, backoffDelay(conf, a)); serr != nil {
				return 0, serr
			}
		}
		env.reduceAttempts.Add(1)
		span := env.trace.Start(obs.KindReduceAttempt, fmt.Sprintf("reduce-%d", p)).
			Attr(obs.AttrTask, int64(p)).Attr(obs.AttrAttempt, int64(a))
		t0 := time.Now()
		out, rerr := conf.RemoteReduce.RunReduce(env.ctx, p, a, commits)
		if rerr == nil {
			rerr = env.deliverRemoteGroups(p, out, groupHist)
		}
		if rerr == nil {
			groups = int64(len(out.Groups))
			env.reg.Histogram(MetricReduceTaskNS).Observe(int64(time.Since(t0)))
			span.Tag("outcome", "ok").Attr(obs.AttrGroups, groups).End()
			env.trace.Start(obs.KindCommit, fmt.Sprintf("reduce-%d", p)).
				Attr(obs.AttrTask, int64(p)).Attr(obs.AttrAttempt, int64(a)).
				Tag("phase", "reduce").End()
			return groups, nil
		}
		span.Tag("outcome", "error").End()
		if env.ctx.Err() != nil {
			return 0, env.ctx.Err()
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", a, rerr))
	}
	return 0, fmt.Errorf("mapreduce %q: reduce task %d failed after %d attempts: %w",
		env.job.Name, p, len(attemptErrs), errors.Join(attemptErrs...))
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
	for _, sp := range out.Spans {
		if sp == nil {
			continue
		}
		sp.ID = 0 // EmitRaw reassigns from the coordinator's sequence
		sp.Parent = env.trace.CurrentJob()
		if sp.Tags == nil {
			sp.Tags = map[string]string{}
		}
		sp.Tags["remote"] = "1"
		if sp.Attrs == nil {
			sp.Attrs = map[string]int64{}
		}
		sp.Attrs[obs.AttrWorker] = int64(out.Worker)
		env.trace.EmitRaw(sp)
	}
	env.trace.Start(obs.KindPartOwner, fmt.Sprintf("part-%d", p)).
		Attr(obs.AttrPart, int64(p)).Attr(obs.AttrWorker, int64(out.Worker)).End()
	return nil
}

// validateRemote rejects Config combinations the remote paths cannot
// honor: the fault hooks and the external-sort baseline live inside the
// in-process attempt body, and worker-resident reduce consumes runs
// pushed by worker-resident maps.
func validateRemote(conf Config) error {
	switch {
	case conf.RemoteMap == nil && conf.RemoteReduce != nil:
		return errors.New("RemoteReduce requires RemoteMap (worker-resident reduce consumes runs pushed by worker-resident maps)")
	case conf.RemoteMap == nil:
		return nil
	case conf.ExternalSort:
		return errors.New("RemoteMap is incompatible with ExternalSort (workers ship pre-sorted runs)")
	case conf.Faults != nil:
		return errors.New("RemoteMap is incompatible with Faults (inject worker faults at the cluster layer instead)")
	}
	return nil
}
