package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Deterministic fault injection: the one mechanism every chaos test
// arms, through Config.Faults.
//
// A FaultPlan decides, as a pure function of a single int64 seed and the
// coordinates (injection point, task — a partition at the reduce points,
// a job at the serve point — and attempt ID), whether an attempt is
// killed, delayed, or errored at that point. Because the decision
// depends only on those coordinates — never on wall-clock time or
// goroutine scheduling — the same seed injects the same faults into the
// same attempts on every run, which is what makes the differential chaos
// suites meaningful: any divergence from the fault-free run is an engine
// or protocol bug, not injection noise. (With speculation enabled,
// *which* attempt IDs exist can vary with timing; the decision per
// attempt ID is still fixed.)
//
// The coordinator decides and whatever runs the attempt executes: the
// engine arms an attempt's faults once, before it runs (Arm), at the
// points that attempt can reach, and hands them to the attempt body —
// here, or on the cluster worker they travel to in the assignment —
// which fires each at its point (Fire).
//
// The paper's premise makes this testable at all: mappers recompute
// symbolic summaries deterministically anywhere, and reducers compose
// committed runs in (mapperID, emit) order, so any retry or
// re-execution schedule must reproduce the fault-free output byte for
// byte (§5.4).

// ErrFaultInjected is the error carried by KindError faults, so tests
// can tell injected failures from real ones with errors.Is.
var ErrFaultInjected = errors.New("mapreduce: injected fault")

// ErrAttemptKilled is the error carried by KindKill faults. In process
// the attempt died in place, the stand-in for a lost worker: like an
// error it consumes an attempt, but it surfaces no user-code failure and
// abandons any partial output. On a worker it is the instruction to die:
// the worker aborts the attempt's connection.
var ErrAttemptKilled = errors.New("mapreduce: task attempt killed")

// FaultKind is what an injected fault does to the attempt. Kinds and
// points travel in a cluster assignment, so each has a fixed number: a
// deleted one's number stays reserved (no name) and is never reused.
type FaultKind uint8

const (
	// KindError makes the attempt fail with ErrFaultInjected; on a worker
	// it is a clean error frame on a connection that stays usable.
	KindError FaultKind = 0
	// KindKill makes the attempt die in place with ErrAttemptKilled: in
	// process its partial output is discarded, on a worker the connection
	// is aborted.
	KindKill FaultKind = 1
	// KindDelay stalls the attempt, long enough relative to its peers to
	// look like a straggler and provoke speculative re-execution.
	KindDelay FaultKind = 2
)

var kindNames = [...]string{KindError: "error", KindKill: "kill", KindDelay: "delay"}

const numFaultKinds = len(kindNames)

// Valid reports whether k is a declared kind.
func (k FaultKind) Valid() bool { return int(k) < numFaultKinds && kindNames[k] != "" }

func (k FaultKind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultPoint is a boundary where faults can fire. A point has nothing to
// fire on in some settings (a run received, in process); it is never
// armed there. DESIGN.md's "Fault plan" table says what each kind does
// at each point, in process and on a worker.
type FaultPoint uint8

const (
	// PointMapStart fires before the user map runs.
	PointMapStart FaultPoint = 0
	// PointMapEmit fires at the attempt's first emit — user code has
	// begun producing output.
	PointMapEmit FaultPoint = 1
	// PointMapMid fires at a seed-derived emit ordinal in [1, 128), so
	// partial map output exists when the fault hits.
	PointMapMid FaultPoint = 2
	// PointRunSend fires before the attempt publishes its k-th spill run
	// (k seed-derived in [0, 3)): on a worker, k runs have streamed.
	PointRunSend FaultPoint = 3
	// PointRunRecv fires on the coordinator when it has received a remote
	// attempt's k-th run (k in [0, 3)): a kill or error drops the
	// connection mid-stream.
	PointRunRecv FaultPoint = 4
	// PointSpillWrite fires after the attempt's spill runs are sorted,
	// encoded and published to its sink but before they are committed —
	// the window where a dying attempt holds complete output that must
	// never be published.
	PointSpillWrite FaultPoint = 5
	// PointReduceMerge fires at the start of a reduce attempt's merge,
	// before any user Reduce call.
	PointReduceMerge FaultPoint = 6
	// PointReduceMid fires after a seed-derived k-th group of a reduce
	// attempt (k in [0, 4)), with part of the partition reduced.
	PointReduceMid FaultPoint = 7
	// PointServeJob fires once per serve job, drawn by the serve chaos
	// harness: a kill disconnects the tenant mid-job, an error cancels
	// the job, a delay flushes the summary cache mid-fold (a slowdown,
	// never a different answer).
	PointServeJob FaultPoint = 8
)

var pointNames = [...]string{PointMapStart: "map-start", PointMapEmit: "map-emit",
	PointMapMid: "map-mid", PointRunSend: "run-send", PointRunRecv: "run-recv",
	PointSpillWrite: "spill-write", PointReduceMerge: "reduce-merge",
	PointReduceMid: "reduce-mid", PointServeJob: "serve-job"}

const numFaultPoints = len(pointNames)

// Valid reports whether p is a declared point.
func (p FaultPoint) Valid() bool { return int(p) < numFaultPoints && pointNames[p] != "" }

func (p FaultPoint) String() string {
	if p.Valid() {
		return pointNames[p]
	}
	return fmt.Sprintf("FaultPoint(%d)", uint8(p))
}

// ordinals derives the occurrence a point's fault fires at: lo + roll%n
// for the points that recur within an attempt, 0 for the rest.
var ordinals = [numFaultPoints]struct{ lo, n uint64 }{
	PointMapMid: {1, 127}, PointRunSend: {0, 3}, PointRunRecv: {0, 3},
	PointReduceMid: {0, 4},
}

// AllFaultPoints lists every declared injection point, in number order.
func AllFaultPoints() []FaultPoint { return declared[FaultPoint](pointNames[:]) }

// AllFaultKinds lists every declared fault kind.
func AllFaultKinds() []FaultKind { return declared[FaultKind](kindNames[:]) }

// declared lists the numbers of names that have one, in number order.
func declared[T ~uint8](names []string) []T {
	var ts []T
	for i, n := range names {
		if n != "" {
			ts = append(ts, T(i))
		}
	}
	return ts
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
		if pt.Valid() {
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

// Injected returns the total number of faults armed so far.
func (p *FaultPlan) Injected() int64 {
	var n int64
	for i := range p.stats {
		for k := range p.stats[i] {
			n += p.stats[i][k].Load()
		}
	}
	return n
}

// InjectedAt returns the number of faults of one kind armed at one point.
func (p *FaultPlan) InjectedAt(pt FaultPoint, k FaultKind) int64 {
	if !pt.Valid() || !k.Valid() {
		return 0
	}
	return p.stats[pt][k].Load()
}

// Fault is one armed fault: what it does, where, and at which occurrence
// of its point it fires — the At-th emit, run, push or group, counting
// from 0 (0 at the points an attempt passes once).
type Fault struct {
	Point FaultPoint
	Kind  FaultKind
	At    int64
	Delay time.Duration // KindDelay's stall
}

// AttemptFaults is what a plan armed for one attempt — the one fault
// value a remote attempt carries to the worker that executes it.
type AttemptFaults []Fault

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash used to derive independent per-coordinate
// decisions from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll derives the decision hash for one (point, id, attempt, salt)
// coordinate.
func (p *FaultPlan) roll(point FaultPoint, id, attempt int, salt uint64) uint64 {
	h := splitmix64(uint64(p.seed))
	return splitmix64(h ^ uint64(point) ^ uint64(id)<<8 ^ uint64(attempt)<<32 ^ salt<<48)
}

// decide is the one decision function: the fault, if any, at one
// coordinate. The one spare-final rule spares attempt IDs at or past
// maxAttempts-1 — the job's last budgeted attempt and any speculative
// attempt beyond it — so every task keeps a survivable path.
func (p *FaultPlan) decide(pt FaultPoint, id, attempt, maxAttempts int) (Fault, bool) {
	if p == nil || !pt.Valid() || !p.points[pt] || len(p.kinds) == 0 ||
		p.spareFinal && attempt >= maxAttempts-1 {
		return Fault{}, false
	}
	h := p.roll(pt, id, attempt, 1)
	if h%1000 >= p.rateMille {
		return Fault{}, false
	}
	f := Fault{Point: pt, Kind: p.kinds[(h/1000)%uint64(len(p.kinds))]}
	if f.Kind == KindDelay {
		f.Delay = time.Duration(1 + (h>>20)%uint64(p.maxDelay))
	}
	if o := ordinals[pt]; o.n > 0 {
		f.At = int64(o.lo + p.roll(pt, id, attempt, 2)%o.n)
	}
	return f, true
}

// Arm decides one attempt's faults at the given points, in the order
// given, and counts each as injected. maxAttempts is the job's
// Config.MaxAttempts (the spare-final budget). A nil plan arms nothing.
func (p *FaultPlan) Arm(id, attempt, maxAttempts int, pts ...FaultPoint) AttemptFaults {
	if p == nil {
		return nil
	}
	var fs AttemptFaults
	for _, pt := range pts {
		if f, ok := p.decide(pt, id, attempt, maxAttempts); ok {
			p.stats[pt][f.Kind].Add(1)
			fs = append(fs, f)
		}
	}
	return fs
}

// Fire executes the fault armed at pt for its n-th occurrence, if any: a
// delay sleeps and returns nil (ctx's error if ctx cuts it short), a
// kill returns an error wrapping ErrAttemptKilled, an error fault one
// wrapping ErrFaultInjected.
func (fs AttemptFaults) Fire(ctx context.Context, pt FaultPoint, n int64) error {
	for _, f := range fs {
		if f.Point == pt && f.At == n {
			return f.fire(ctx)
		}
	}
	return nil
}

func (f Fault) fire(ctx context.Context) error {
	switch f.Kind {
	case KindDelay:
		return sleepCtx(ctx, f.Delay)
	case KindKill:
		return fmt.Errorf("%w at %v", ErrAttemptKilled, f.Point)
	}
	return fmt.Errorf("%w at %v", ErrFaultInjected, f.Point)
}

// attemptAbort carries an injected mid-map fault out of user code via
// panic; the attempt body recovers it into the attempt's error.
type attemptAbort struct{ err error }
