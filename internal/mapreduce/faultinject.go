package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Deterministic fault injection for chaos-testing the task lifecycle.
//
// A FaultPlan decides, as a pure function of a single int64 seed and the
// coordinates (injection point, task ID, attempt ID), whether a task
// attempt is killed, delayed, or errored at that point. Because the
// decision depends only on those coordinates — never on wall-clock time
// or goroutine scheduling — the same seed injects the same faults into
// the same attempts on every run, which is what makes the differential
// chaos suite meaningful: any divergence from the fault-free run is an
// engine bug, not injection noise. (With speculation enabled, *which*
// attempt IDs exist can vary with timing; the decision per attempt ID is
// still fixed.)
//
// The paper's premise makes this testable at all: mappers recompute
// symbolic summaries deterministically anywhere, and reducers compose
// committed runs in (mapperID, recordID) order, so any retry or
// re-execution schedule must reproduce the fault-free output byte for
// byte (§5.4).

// ErrFaultInjected is the error carried by KindError faults, so tests
// can tell injected failures from real ones with errors.Is.
var ErrFaultInjected = errors.New("mapreduce: injected fault")

// errAttemptKilled marks an attempt that died in place — the in-process
// stand-in for a lost worker. Like an error it consumes an attempt, but
// it surfaces no user-code failure and abandons any partial output.
var errAttemptKilled = errors.New("mapreduce: task attempt killed")

// FaultKind is what an injected fault does to the attempt.
type FaultKind uint8

const (
	// KindError makes the attempt fail with ErrFaultInjected.
	KindError FaultKind = iota
	// KindKill makes the attempt die in place, as if its worker was
	// lost: partial output is discarded and no user error surfaces.
	KindKill
	// KindDelay stalls the attempt, long enough relative to its peers to
	// look like a straggler and provoke speculative re-execution.
	KindDelay

	numFaultKinds
)

func (k FaultKind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindKill:
		return "kill"
	case KindDelay:
		return "delay"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultPoint is a task-lifecycle boundary where faults can fire.
type FaultPoint uint8

const (
	// PointMapStart fires before the user map function runs.
	PointMapStart FaultPoint = iota
	// PointMapEmit fires at the attempt's first emit — user code has
	// begun producing output.
	PointMapEmit
	// PointMapMid fires at a seed-derived emit ordinal mid-stream, so
	// partial map output exists when the fault hits.
	PointMapMid
	// PointSpillWrite fires after the attempt's spill runs are sorted
	// and encoded but before they are committed — the window where a
	// dying attempt holds complete output that must never be published.
	PointSpillWrite
	// PointReduceMerge fires at the start of a reduce attempt's merge,
	// before any user Reduce call.
	PointReduceMerge

	numFaultPoints
)

func (p FaultPoint) String() string {
	switch p {
	case PointMapStart:
		return "map-start"
	case PointMapEmit:
		return "map-emit"
	case PointMapMid:
		return "map-mid"
	case PointSpillWrite:
		return "spill-write"
	case PointReduceMerge:
		return "reduce-merge"
	}
	return fmt.Sprintf("FaultPoint(%d)", uint8(p))
}

// AllFaultPoints lists every injection point, in lifecycle order.
func AllFaultPoints() []FaultPoint {
	return []FaultPoint{PointMapStart, PointMapEmit, PointMapMid, PointSpillWrite, PointReduceMerge}
}

// AllFaultKinds lists every fault kind.
func AllFaultKinds() []FaultKind {
	return []FaultKind{KindError, KindKill, KindDelay}
}

// FaultPlan injects deterministic faults into a job via Config.Faults.
// Construct with NewFaultPlan and narrow with the With* builders; the
// zero FaultPlan and a nil *FaultPlan inject nothing. A plan is safe for
// concurrent use and may be shared across jobs (its counters accumulate).
type FaultPlan struct {
	seed       int64
	rateMille  uint64 // per-mille fault probability per (point, task, attempt)
	maxDelay   time.Duration
	points     [numFaultPoints]bool
	kinds      []FaultKind
	spareFinal bool

	stats [numFaultPoints][numFaultKinds]atomic.Int64
}

// NewFaultPlan returns a plan seeded by one int64: all points, all
// kinds, a 30% per-(point,task,attempt) fault rate, 2ms max delay, and
// the final attempt of every task spared so jobs with retries enabled
// always make progress.
func NewFaultPlan(seed int64) *FaultPlan {
	p := &FaultPlan{
		seed:       seed,
		rateMille:  300,
		maxDelay:   2 * time.Millisecond,
		kinds:      AllFaultKinds(),
		spareFinal: true,
	}
	for i := range p.points {
		p.points[i] = true
	}
	return p
}

// WithRate sets the per-(point, task, attempt) fault probability.
func (p *FaultPlan) WithRate(rate float64) *FaultPlan {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	p.rateMille = uint64(rate * 1000)
	return p
}

// WithMaxDelay bounds KindDelay stalls.
func (p *FaultPlan) WithMaxDelay(d time.Duration) *FaultPlan {
	if d > 0 {
		p.maxDelay = d
	}
	return p
}

// WithPoints restricts injection to the given points.
func (p *FaultPlan) WithPoints(pts ...FaultPoint) *FaultPlan {
	for i := range p.points {
		p.points[i] = false
	}
	for _, pt := range pts {
		if pt < numFaultPoints {
			p.points[pt] = true
		}
	}
	return p
}

// WithKinds restricts injection to the given kinds.
func (p *FaultPlan) WithKinds(ks ...FaultKind) *FaultPlan {
	p.kinds = append([]FaultKind(nil), ks...)
	return p
}

// WithSpareFinal controls whether a task's last allowed attempt is
// exempt from faults. Sparing it (the default) guarantees every task
// can complete within its attempt budget; disabling it lets tests drive
// jobs into clean aggregated failure.
func (p *FaultPlan) WithSpareFinal(spare bool) *FaultPlan {
	p.spareFinal = spare
	return p
}

// Injected returns the total number of faults fired so far.
func (p *FaultPlan) Injected() int64 {
	var n int64
	for i := range p.stats {
		for k := range p.stats[i] {
			n += p.stats[i][k].Load()
		}
	}
	return n
}

// InjectedAt returns the number of faults of one kind fired at one point.
func (p *FaultPlan) InjectedAt(pt FaultPoint, k FaultKind) int64 {
	if pt >= numFaultPoints || k >= numFaultKinds {
		return 0
	}
	return p.stats[pt][k].Load()
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash used to derive independent per-coordinate
// decisions from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll derives the decision hash for one (point, task, attempt, salt)
// coordinate.
func (p *FaultPlan) roll(point FaultPoint, task, attempt int, salt uint64) uint64 {
	h := splitmix64(uint64(p.seed))
	h = splitmix64(h ^ uint64(point) ^ uint64(task)<<8 ^ uint64(attempt)<<32 ^ salt<<48)
	return h
}

// decide returns the fault, if any, for the coordinate. maxAttempts is
// the task's attempt budget, used by the spare-final rule; speculative
// attempt IDs at or beyond the budget are spared by the same rule.
func (p *FaultPlan) decide(point FaultPoint, task, attempt, maxAttempts int) (FaultKind, time.Duration, bool) {
	if p == nil || len(p.kinds) == 0 || !p.points[point] {
		return 0, 0, false
	}
	if p.spareFinal && attempt >= maxAttempts-1 {
		return 0, 0, false
	}
	h := p.roll(point, task, attempt, 1)
	if h%1000 >= p.rateMille {
		return 0, 0, false
	}
	k := p.kinds[(h/1000)%uint64(len(p.kinds))]
	var d time.Duration
	if k == KindDelay {
		d = time.Duration(1 + (h>>20)%uint64(p.maxDelay))
	}
	return k, d, true
}

// fire executes the coordinate's fault, if any: delays sleep (honoring
// ctx) and return nil; errors and kills return their sentinel error.
func (p *FaultPlan) fire(ctx context.Context, point FaultPoint, task, attempt, maxAttempts int) error {
	k, d, ok := p.decide(point, task, attempt, maxAttempts)
	if !ok {
		return nil
	}
	p.stats[point][k].Add(1)
	switch k {
	case KindDelay:
		return sleepCtx(ctx, d)
	case KindKill:
		return fmt.Errorf("%w at %v (task %d attempt %d)", errAttemptKilled, point, task, attempt)
	default:
		return fmt.Errorf("%w at %v (task %d attempt %d)", ErrFaultInjected, point, task, attempt)
	}
}

// emitTrigger is a fault armed to fire at one emit ordinal of a map
// attempt.
type emitTrigger struct {
	at    int64
	point FaultPoint
	kind  FaultKind
	delay time.Duration
}

// emitTriggers precomputes the attempt's emit-point faults: PointMapEmit
// arms at the first emit, PointMapMid at a seed-derived ordinal in
// [1, 128) — if the attempt emits fewer records the fault never fires,
// which is itself deterministic.
func (p *FaultPlan) emitTriggers(task, attempt, maxAttempts int) []emitTrigger {
	if p == nil {
		return nil
	}
	var trigs []emitTrigger
	if k, d, ok := p.decide(PointMapEmit, task, attempt, maxAttempts); ok {
		trigs = append(trigs, emitTrigger{at: 0, point: PointMapEmit, kind: k, delay: d})
	}
	if k, d, ok := p.decide(PointMapMid, task, attempt, maxAttempts); ok {
		at := int64(1 + p.roll(PointMapMid, task, attempt, 2)%127)
		trigs = append(trigs, emitTrigger{at: at, point: PointMapMid, kind: k, delay: d})
	}
	return trigs
}

// fireEmit executes an armed emit trigger inside the user map function.
// Delays sleep in place; kills and errors abort the attempt by panicking
// with attemptAbort, which the attempt runner recovers into an error —
// the in-process analogue of a worker dying mid-task.
func (p *FaultPlan) fireEmit(ctx context.Context, tr emitTrigger, task, attempt int) {
	p.stats[tr.point][tr.kind].Add(1)
	switch tr.kind {
	case KindDelay:
		if err := sleepCtx(ctx, tr.delay); err != nil {
			panic(attemptAbort{err})
		}
	case KindKill:
		panic(attemptAbort{fmt.Errorf("%w at %v (task %d attempt %d)", errAttemptKilled, tr.point, task, attempt)})
	default:
		panic(attemptAbort{fmt.Errorf("%w at %v (task %d attempt %d)", ErrFaultInjected, tr.point, task, attempt)})
	}
}

// attemptAbort carries an injected mid-map fault out of user code via
// panic; the attempt runner recovers it into the attempt's error.
type attemptAbort struct{ err error }
