package mapreduce

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// Worker-side reduce. In the worker-to-worker topology the partition's
// owning worker holds its committed runs in wire form (pushed to it by
// map workers) and runs the same k-way merge the in-process engine
// would, streaming key groups to a caller-supplied function — in
// internal/cluster that function applies the job's registered group
// combiner and encodes the result onto the reply frame.

// MergeEncodedRuns decodes the given wire-form runs, k-way merges them,
// and streams each key group to fn in exactly the order reduceMerge
// produces: ascending key, rows ordered by (mapperID, recordID) — the
// §5.4 composition order that makes placement invisible. Each decoded
// run emits a seg_decode span carrying the producer identity, so a
// worker-resident reduce feeds the verifier's run-merged-once join the
// same records an in-process reduce would; callers must ship those
// spans only for the attempt that succeeds.
//
// The group slice is reused between calls and its values alias pooled
// decode buffers released when MergeEncodedRuns returns: fn must copy
// or encode what it keeps. faults are the reduce attempt's, fired at the
// reduce points as an in-process attempt fires them.
func MergeEncodedRuns(part int, rs []Run, trace *obs.Trace,
	fn func(key string, group []Shuffled) error, faults ...Fault) error {
	runs := make([]spillRun, 0, len(rs))
	defer func() { releaseRuns(runs) }()
	for _, r := range rs {
		span := trace.Start(obs.KindSegDecode, fmt.Sprintf("part-%d", part)).
			Attr(obs.AttrTask, int64(r.Task)).Attr(obs.AttrAttempt, int64(r.Attempt)).
			Attr(obs.AttrPart, int64(r.Part)).Attr(obs.AttrBytes, r.Bytes)
		recs, derr := decodeSegment(r.Seg)
		if derr != nil {
			span.Tag(obs.TagOutcome, "error").End()
			return fmt.Errorf("mapreduce: run (task %d attempt %d part %d): %w",
				r.Task, r.Attempt, r.Part, derr)
		}
		span.End()
		runs = append(runs, spillRun{recs: recs, bytes: r.Bytes})
	}
	_, err := mergeAttempt(context.Background(), runs, faults, fn)
	return err
}
