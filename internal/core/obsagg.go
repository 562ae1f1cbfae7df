package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// composeSpanCap bounds per-group compose spans per job. Group counts
// track key cardinality, which for queries like G1 or B3 approaches
// record cardinality — a span per group there costs more than the reduce
// work it describes and alone pushes tracing past the ≤3% overhead
// budget. The first composeSpanCap groups get individual spans (enough
// to cover every group of the paper's low-cardinality regimes: B1=1,
// B2=50, R1=100); the rest fold into one overflow span whose attrs are
// the sums. The verifier's compose-count invariant survives the
// aggregation exactly: composes + applies == summaries is additive
// across groups.
const composeSpanCap = 128

// composeAgg caps per-group compose-span cardinality for one job. Groups
// past the cap cost one atomic add, four plain ones and no clock reads:
// the sums are kept per reduce task (over[p] is written by task p alone
// and read by flush after the job), because a group's fold is a few
// hundred nanoseconds and four LOCK adds beside it are not free.
type composeAgg struct {
	admitted      atomic.Int64
	overflowStart atomic.Int64 // unix nanos of the first overflow group
	over          []overflowSums
}

// overflowSums is one reduce task's share of the overflow span's attrs.
type overflowSums struct{ groups, summaries, composes, applies int64 }

func (o *overflowSums) add(d overflowSums) {
	o.groups += d.groups
	o.summaries += d.summaries
	o.composes += d.composes
	o.applies += d.applies
}

// admit reports whether this group gets its own span. The first group
// past the cap stamps the overflow span's start time.
func (a *composeAgg) admit() bool {
	if a.admitted.Add(1) <= composeSpanCap {
		return true
	}
	if a.overflowStart.Load() == 0 {
		a.overflowStart.CompareAndSwap(0, time.Now().UnixNano())
	}
	return false
}

// addOverflow folds one past-cap group of reduce task p into the
// aggregate.
func (a *composeAgg) addOverflow(p int, summaries, composes, applies int64) {
	a.over[p].add(overflowSums{1, summaries, composes, applies})
}

// flush emits the overflow aggregate (when any group ran past the cap).
// Called once after the job completes: the span is parented to the job
// via Trace.CurrentJob (which outlives the job span's End) and closed at
// flush time, within the verifier's containment slack of the job end.
func (a *composeAgg) flush(trace *obs.Trace) {
	var sum overflowSums
	for _, o := range a.over {
		sum.add(o)
	}
	if sum.groups == 0 {
		return
	}
	end := time.Now().UnixNano()
	start := a.overflowStart.Load()
	if start == 0 || start > end {
		start = end
	}
	sp := &obs.Span{
		Parent: trace.CurrentJob(),
		Kind:   obs.KindCompose,
		Name:   fmt.Sprintf("overflow+%d-groups", sum.groups),
		Start:  start,
		End:    end,
	}
	sp.SetAttr(obs.AttrGroups, sum.groups)
	sp.SetAttr(obs.AttrSummaries, sum.summaries)
	sp.SetAttr(obs.AttrComposes, sum.composes)
	sp.SetAttr(obs.AttrApplies, sum.applies)
	trace.EmitRaw(sp)
}

// emitComposeSpan emits one under-cap per-group compose span.
func emitComposeSpan(trace *obs.Trace, key string, start, end time.Time, summaries, composes, applies int64) {
	sp := &obs.Span{
		Parent: trace.CurrentJob(),
		Kind:   obs.KindCompose,
		Name:   key,
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
	}
	sp.SetAttr(obs.AttrSummaries, summaries)
	sp.SetAttr(obs.AttrComposes, composes)
	sp.SetAttr(obs.AttrApplies, applies)
	trace.EmitRaw(sp)
}
