package bench

import (
	"fmt"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
)

// Trace and Registry, when set (symplebench -trace / cmd wiring), are
// attached to every engine run the bench harness launches, so whole
// experiments can be captured as one JSONL stream and their metrics
// folded into one registry.
var (
	Trace    *obs.Trace
	Registry *obs.Registry
)

// measured holds one query's paired engine runs on the same input.
type measured struct {
	spec      *queries.Spec
	condensed bool
	baseline  *queries.Run
	symple    *queries.Run
}

// runPair executes the baseline and SYMPLE engines on the query's
// dataset and verifies their outputs agree (every reported number comes
// from runs that produced the correct answer).
//
// The cluster replays (Figs 5–8, B1 latency) measure under the
// default engine — the configuration `go run ./benchmark` and every
// user-facing path drive. Their dcsim models charge each job for the
// bytes it shuffles and the CPU its reducers spend composing, scaled to
// paper size; both are properties of the job (what the mappers emit,
// what the reducer computes per group), not of how the substrate
// ordered the runs, so there is nothing a second, slower shuffle could
// add to a replay except its own sort cost billed to both engines.
//
// A replayed job is one cold scan of its input, as every Hadoop job in
// the paper is, so SYMPLE runs over segments nothing has touched: its
// map tasks pay for grouping them, where a third job in this process
// would read the grouped form the second kept.
func runPair(d *Datasets, id string, condensed bool, reducers int) (*measured, error) {
	spec := queries.ByID(id)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown query %q", id)
	}
	segs, err := d.For(spec.Dataset, condensed)
	if err != nil {
		return nil, err
	}
	conf := mapreduce.Config{NumReducers: reducers, Trace: Trace, Registry: Registry}
	base, err := spec.Baseline(segs, conf)
	if err != nil {
		return nil, fmt.Errorf("bench %s baseline: %w", id, err)
	}
	cold := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		cold[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records}
	}
	symp, err := spec.Symple(cold, conf)
	if err != nil {
		return nil, fmt.Errorf("bench %s symple: %w", id, err)
	}
	if base.Digest != symp.Digest {
		return nil, fmt.Errorf("bench %s: engines disagree (baseline %x, symple %x)",
			id, base.Digest, symp.Digest)
	}
	return &measured{spec: spec, condensed: condensed, baseline: base, symple: symp}, nil
}

// label renders the query name, with the paper's "c" suffix for the
// condensed RedShift variant.
func (m *measured) label() string {
	if m.condensed {
		return m.spec.ID + "c"
	}
	return m.spec.ID
}
