package core

import (
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
)

// Reduce-side group folding for worker-resident reduces. When a
// partition's owning worker merges its runs (cluster w2w topology),
// each key group holds one summary bundle per mapper chunk. The owner
// does the real reduce work in place: fold the group's summaries onto
// the query's initial state (groupFolder, the reducer's own fold) and
// ship the concrete final state back as a single constant summary —
// legitimate because a concretized state admits any input (Concretize
// clears every field's constraint, §4.2), so the coordinator-side fold
// over the constant bundle reproduces the sequential semantics byte for
// byte. Shipping the applied state rather than a composed summary
// matters for reply size: a composed summary is still a function of the
// unknown initial state and keeps one path per feasible precondition,
// while the applied state has collapsed to the single path the real
// initial state selects.

// SympleCombiner builds the reduce-side group combiner for a query.
// The returned function matches cluster.GroupCombiner: it reduces a
// merged group's summary bundles to one constant-summary bundle, or
// passes the rows through unchanged when the fold fails — the
// coordinator-side reducer then sees exactly the via-coordinator bytes
// and surfaces the identical error. Correctness never depends on the
// combiner firing, only reply size does. Each folded group emits the
// reducer's compose span shape (composes = 0, applies = summaries)
// under an "owner/" name, so the trace verifier's compose-count
// invariant covers the owner-side reduce too. The combiner folds every
// group on one site, so calls must not overlap (the cluster worker makes
// them under its cachedReducer's lock).
func SympleCombiner[S sym.State, E, R any](q *Query[S, E, R], trace *obs.Trace) (func(key string, rows []mapreduce.Shuffled) ([]mapreduce.Shuffled, error), error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	sc, err := q.Schema()
	if err != nil {
		return nil, err
	}
	site := newGroupFolder(sc)
	return func(key string, rows []mapreduce.Shuffled) ([]mapreduce.Shuffled, error) {
		span := trace.Start(obs.KindCompose, "owner/"+key)
		final, n, err := site.fold(rows)
		if err != nil || n == 0 {
			// A half-open span is never flushed.
			return rows, nil
		}
		span.Attr(obs.AttrSummaries, n).Attr(obs.AttrComposes, 0).Attr(obs.AttrApplies, n).End()
		buf := sym.EncodeSummaryBundle([]*sym.Summary[S]{sym.NewSummary(q.NewState, []S{final})})
		// Row identity comes from the group's first row: the reducer
		// ignores (MapperID, RecordID), and keeping the minimum preserves
		// the merge order's invariants for any future reader that does
		// look.
		return []mapreduce.Shuffled{{MapperID: rows[0].MapperID, RecordID: rows[0].RecordID, Value: buf}}, nil
	}, nil
}
