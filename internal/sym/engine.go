package sym

import (
	"fmt"

	"repro/internal/wire"
)

// Options configure an Executor's path-explosion controls (paper §5.2).
type Options struct {
	// MaxLivePaths bounds the live paths carried across records. When
	// exceeded (after merging), the executor emits the summary built so
	// far and restarts from a fresh symbolic state, trading parallelism
	// for sequential efficiency instead of blowing up. Default 8, the
	// paper's setting.
	MaxLivePaths int

	// MaxRunsPerRecord bounds the paths explored while processing a
	// single record. Exceeding it indicates a loop that depends on the
	// aggregation state and aborts with ErrPathExplosion. Default 256.
	MaxRunsPerRecord int

	// DisableMerging turns off path merging (ablation only).
	DisableMerging bool
}

// DefaultOptions returns the paper's settings.
func DefaultOptions() Options {
	return Options{MaxLivePaths: 8, MaxRunsPerRecord: 256}
}

func (o Options) withDefaults() Options {
	if o.MaxLivePaths <= 0 {
		o.MaxLivePaths = 8
	}
	if o.MaxRunsPerRecord <= 0 {
		o.MaxRunsPerRecord = 256
	}
	return o
}

// Stats counts the work an Executor performed. Merges counts merges in
// the live path set and while powering a run transition; a power the run
// cache serves adds none.
type Stats struct {
	Records  int // records fed
	Runs     int // Update invocations (the symbolic overhead; run folding can keep it below Records)
	MaxLive  int // peak live paths after merging
	Merges   int // path pairs merged (see above)
	Restarts int // summaries emitted due to the live-path cap
	// RunProbes counts runs of identical events FeedBatch folded as a
	// unit (identity skip or transition powering).
	RunProbes int
	// Events counts the groups AppendBundle shipped as their events
	// (bundle.go), each one element.
	Events int
}

// Executor runs a UDA's Update function over a stream of records,
// exploring every feasible path per record with a lexicographically
// incremented choice vector (paper §5.1) and maintaining the set of live
// paths that constitutes the symbolic summary so far.
//
// The executor is an exec site: it is driven by a compiled Schema and
// owns the containers its path states live in — live paths, summaries
// closed by a restart, checkpoints and the run cache's transitions all
// draw from and retire to its private stack — and the storage their
// vectors grow into, which Reset reclaims. So the per-record work runs
// with no State.Fields call, no steady-state allocation and no lock. A
// key owns nothing but the bytes AppendBundle leaves; what outlives it
// (the run cache's transitions, Finish's summaries) is moved out first.
//
// The zero Executor is not usable; construct with NewExecutor (symbolic
// start, for mappers), NewConcreteExecutor (concrete start, for the
// sequential baseline), or NewSchemaExecutor (symbolic start sharing a
// schema across the executors of one mapper).
type Executor[S State, E any] struct {
	containers[S]
	vecs    vecArena // the containers' vectors' storage (containers.vecs)
	update  func(*Ctx, S, E)
	opts    Options
	ctx     Ctx
	paths   []*pathState[S]
	scratch []*pathState[S] // recycled backing array for the next-paths slice
	senv    SymEnv          // reused scratch for transition composition
	// noForkRun counts consecutive fork-free records, capped at
	// windowQuiet, where FeedBatch starts in-place windows (batch.go).
	noForkRun int
	// fastConcrete caches "exactly one live path, fully concrete": only
	// a restart makes a path symbolic again, so the per-record field walk
	// is skipped — the native-speed mode of a bound state (paper §4.1).
	fastConcrete bool
	// done holds the path sets closed by live-path-cap restarts since the
	// last Reset, in order: the key's earlier summaries. Reset keeps
	// their lists in sets, for the next key's restarts.
	done    [][]*pathState[S]
	sets    [][]*pathState[S]
	maxSeen int
	err     error
	stats   Stats
	// eq compares events for run detection, specialized at first use
	// (initEq); nil when the event type has no cheap comparison.
	// identScan counts a vector's leading events equal to a probe, and
	// identCompact filters out the hot one without a data-dependent
	// branch into evBuf (scanEq, compactNe): nil whenever eq is.
	eq           func(E, E) bool
	eqInit       bool
	identScan    func([]E, E) int
	identCompact func(dst, src []E, hot E) int
	evBuf        []E
	// ckpt holds per-path checkpoints for in-place windows (batch.go).
	ckpt []*pathState[S]
	// trs are retired transitions, kept with their path lists.
	trs []*transition[S]
	// runs is the per-event run cache (batch.go, runEntry), runPos its
	// clock hand: a transition is a property of the event alone, so it
	// survives Reset, as noForkRun does. identHotEv is the first identity
	// event found (G1's push), for feedWindow's one-eq skip; identBundle
	// the bundle of an all-identity key (IdentityBundle).
	runs        []runEntry[S, E]
	runPos      int
	identHotEv  E
	identHotSet bool
	identBundle []byte
	// encodeEvent is the schema's event codec, nil when it has none for
	// E. empty: nothing fed since the last Reset. group, when not empty:
	// the group is these events, which AppendBundle ships (an
	// executor-owned copy); pending: FeedBatch recorded them without
	// feeding them, which flush does for the APIs that read the paths
	// (Finish) or feed more.
	encodeEvent    func(*wire.Encoder, E)
	group          []E
	empty, pending bool
}

// NewExecutor returns an executor starting from a fresh symbolic state:
// the mapper side of SYMPLE, which does not know the state its chunk will
// receive. newState must return the user's initial aggregation state (its
// concrete values are ignored here but used by summary application).
func NewExecutor[S State, E any](newState func() S, update func(*Ctx, S, E), opts Options) *Executor[S, E] {
	return NewSchemaExecutor(newSchema(newState), update, opts)
}

// NewSchemaExecutor is NewExecutor over a shared compiled schema: the
// form mappers use, so every executor of a query runs on one field plan.
func NewSchemaExecutor[S State, E any](sc *Schema[S], update func(*Ctx, S, E), opts Options) *Executor[S, E] {
	x := &Executor[S, E]{
		containers: containers[S]{sc: sc},
		update:     update,
		opts:       opts.withDefaults(),
		empty:      true,
	}
	x.containers.vecs = &x.vecs
	x.encodeEvent, _ = sc.encodeEvent.(func(*wire.Encoder, E))
	x.paths = []*pathState[S]{x.fresh()}
	x.maxSeen = 1
	x.stats.MaxLive = 1
	return x
}

// NewConcreteExecutor returns an executor starting from the user's
// initial concrete state. All branches resolve concretely, so exactly one
// path is ever live: this is the sequential execution of the UDA through
// the same code path, used as the correctness oracle and the Sequential
// baseline.
func NewConcreteExecutor[S State, E any](newState func() S, update func(*Ctx, S, E), opts Options) *Executor[S, E] {
	sc := newSchema(newState)
	x := &Executor[S, E]{
		containers: containers[S]{sc: sc},
		update:     update,
		opts:       opts.withDefaults(),
	}
	x.containers.vecs = &x.vecs
	x.paths = []*pathState[S]{wrapState(sc.newState())}
	x.maxSeen = 1
	x.stats.MaxLive = 1
	x.fastConcrete = allConcreteFields(x.paths[0].fs)
	return x
}

// Feed processes one input record, advancing every live path. A returned
// error (path explosion, overflow) is sticky: the executor is dead.
func (x *Executor[S, E]) Feed(rec E) (err error) {
	if err := x.flush(); err != nil {
		return err
	}
	defer x.catch(&err)
	x.empty, x.group = false, x.group[:0]
	x.feed(rec)
	return nil
}

// catch turns an aborted operation (fail) into the executor's sticky
// error; deferred by every entry point that runs Update.
func (x *Executor[S, E]) catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(failure)
		if !ok {
			panic(r)
		}
		x.err, *err = f.err, f.err
	}
}

// flush feeds a pending group's events and returns the sticky error.
func (x *Executor[S, E]) flush() (err error) {
	if x.err == nil && x.pending {
		defer x.catch(&err)
		x.pending = false
		x.stats.Records -= len(x.group) // counted when FeedBatch took them
		x.feedBatch(x.group)
	}
	return x.err
}

func (x *Executor[S, E]) feed(rec E) {
	x.stats.Records++
	if x.fastConcrete {
		x.ctx.reset()
		x.ctx.begin()
		x.stats.Runs++
		x.update(&x.ctx, x.paths[0].s, rec)
		return
	}
	next := x.scratch[:0]
	for _, p := range x.paths {
		if allConcreteFields(p.fs) {
			// Fast path: no field depends on symbolic input, so Update
			// cannot fork and may run in place without cloning.
			x.ctx.reset()
			x.ctx.begin()
			x.stats.Runs++
			x.update(&x.ctx, p.s, rec)
			next = append(next, p)
			continue
		}
		next = x.explore(next, p, rec)
		// p was replaced by its clones and is never referenced again:
		// the next clone reuses it (see containers on why that is safe).
		x.put(p)
	}
	x.settle(next, 1)
}

// settle installs next as the live path set after records input records
// advanced every path, then applies the paper's explosion controls:
// merge as soon as the path count exceeds the previous maximum (§5.2),
// restart if still over the live cap. Shared by the scalar feed and the
// batch path (batch.go), which settles once per folded run.
func (x *Executor[S, E]) settle(next []*pathState[S], records int) {
	if len(next) > len(x.paths) {
		x.noForkRun = 0
	} else {
		x.noForkRun = min(x.noForkRun+records, windowQuiet)
	}
	x.scratch = x.paths
	x.paths = next

	if len(x.paths) > x.maxSeen {
		if !x.opts.DisableMerging {
			var m int
			x.paths, m = x.merge(x.paths)
			x.stats.Merges += m
		}
		if len(x.paths) > x.maxSeen {
			x.maxSeen = len(x.paths)
		}
		if len(x.paths) > x.stats.MaxLive {
			x.stats.MaxLive = len(x.paths)
		}
	}
	if len(x.paths) > x.opts.MaxLivePaths {
		x.done = append(x.done, x.paths)
		x.paths = append(x.pathSet(), x.fresh())
		x.maxSeen = 1
		x.stats.Restarts++
	}
	x.fastConcrete = len(x.paths) == 1 && allConcreteFields(x.paths[0].fs)
}

// explore runs the seed exploration loop for one symbolic path: one
// Update invocation per feasible choice vector, each on a clone.
func (x *Executor[S, E]) explore(next []*pathState[S], p *pathState[S], rec E) []*pathState[S] {
	x.ctx.reset()
	for {
		x.ctx.begin()
		x.stats.Runs++
		if x.ctx.runs > x.opts.MaxRunsPerRecord {
			fail(ErrPathExplosion)
		}
		run := x.cloneOf(p)
		x.update(&x.ctx, run.s, rec)
		next = append(next, run)
		if !x.ctx.advance() {
			break
		}
	}
	return next
}

// pathSet returns an empty path list a key's restart left, or nil.
func (x *Executor[S, E]) pathSet() []*pathState[S] {
	n := len(x.sets)
	if n == 0 {
		return nil
	}
	ps := x.sets[n-1]
	x.sets = x.sets[:n-1]
	return ps
}

// transition is a record-transition summary T_rec: the set of path
// states produced by exploring one record from the fully symbolic state.
type transition[S State] struct {
	ps []*pathState[S]
}

// buildTransition explores the record once from a fresh symbolic state,
// producing its transition summary T_rec. Composing T_rec onto a live
// path is byte-identical to exploring the record from that path: the
// decision procedures and compositions are exact, and filtering the
// fresh-state paths by feasibility keeps the direct exploration's
// lexicographic order. Exploring from an unconstrained state can fail
// where the direct one would not (more branches hit MaxRunsPerRecord,
// or Update reads what only the live path binds); then T_rec is
// unbuildable (nil).
func (x *Executor[S, E]) buildTransition(rec E) (tr *transition[S]) {
	tr = x.newTransition()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(failure); !ok {
				panic(r)
			}
			x.releaseTransition(tr)
			tr = nil
		}
	}()
	base := x.fresh()
	tr.ps = x.explore(tr.ps, base, rec)
	x.put(base)
	return tr
}

// composeOnto folds a transition onto live path p (paper §3.6), p only
// read. When the composition aborts (an overflow direct execution would
// not hit) or no transition path admits p, it reports ok=false with next
// as it was, and the caller falls back to the scalar feed.
func (x *Executor[S, E]) composeOnto(next []*pathState[S], p *pathState[S], tr *transition[S]) ([]*pathState[S], bool) {
	out, err := x.composeAfter(next, p, tr.ps, &x.senv)
	return out, err == nil && len(out) > len(next)
}

// Finish returns the ordered symbolic summaries for everything fed so
// far: one, or several after path-explosion restarts. It is the snapshot
// API — plainly allocated copies the caller owns, off the site's storage,
// while the paths stay live, so feeding may continue. A map task never
// materializes summaries (AppendBundle).
func (x *Executor[S, E]) Finish() ([]*Summary[S], error) {
	if err := x.flush(); err != nil {
		return nil, err
	}
	out := make([]*Summary[S], 0, len(x.done)+1)
	for _, ps := range append(x.done[:len(x.done):len(x.done)], x.paths) {
		cp := make([]*pathState[S], len(ps))
		for i, p := range ps {
			cp[i] = x.sc.newContainer()
			cp[i].copyFrom(p)
			x.sc.detach(cp[i], nil)
		}
		out = append(out, &Summary[S]{ps: cp, newState: x.sc.newState, sc: x.sc})
	}
	return out, nil
}

// AppendBundle appends to e the bundle of everything fed since the last
// Reset — the group of events FeedBatch took, or the summaries closed by
// restarts and then the live paths (bundle.go) — and returns how many
// elements that is: EncodeSummaryBundle(Finish())'s bytes, each path set
// compacted in place and encoded from the executor's own containers.
func (x *Executor[S, E]) AppendBundle(e *wire.Encoder) (int, error) {
	if x.err != nil {
		return 0, x.err
	}
	if len(x.group) > 0 {
		e.Uvarint(0)
		e.Uvarint(uint64(len(x.group)))
		for _, ev := range x.group {
			x.encodeEvent(e, ev)
		}
		x.stats.Events++
		return 1, nil
	}
	e.Uvarint(uint64(len(x.done) + 1))
	for i, ps := range x.done {
		x.done[i], _ = x.compact(ps)
		encodePaths(e, x.done[i])
	}
	x.paths, _ = x.compact(x.paths)
	encodePaths(e, x.paths)
	return len(x.done) + 1, nil
}

// Reset returns the executor to a fresh symbolic start for the next key,
// keeping its schema, options, caches, scratch and cumulative Stats, so
// one executor serves every key of a map chunk. The first live container
// is reinitialized in place; the rest, and the summaries restarts closed,
// retire to the stack, and the storage their vectors grew into is
// reclaimed.
func (x *Executor[S, E]) Reset() {
	if x.err != nil {
		// An aborted feed leaves the path set and the stack unspecified
		// (a container may be both retired and still listed live):
		// drop both rather than reuse either.
		x.err, x.free, x.done = nil, nil, x.done[:0]
		x.paths = append(x.paths[:0], x.fresh())
	}
	for _, ps := range x.done {
		x.putAll(ps)
		x.sets = append(x.sets, ps[:0])
	}
	x.done = x.done[:0]
	x.putAll(x.paths[1:])
	x.paths = x.paths[:1]
	x.paths[0].resetSymbolic()
	x.maxSeen = 1
	x.fastConcrete = false
	x.empty, x.pending, x.group = true, false, x.group[:0]
	x.vecs.reset()
	// noForkRun survives: forking is a property of the query's Update
	// and event mix, not of the key.
}

// ConcreteState returns the single live state of a concrete execution.
// It errors if the executor was started symbolically or has failed.
func (x *Executor[S, E]) ConcreteState() (S, error) {
	var zero S
	if x.err != nil {
		return zero, x.err
	}
	if len(x.done) != 0 || len(x.paths) != 1 || !allConcreteFields(x.paths[0].fs) {
		return zero, fmt.Errorf("sym: executor state is symbolic (%d summaries, %d paths)",
			len(x.done), len(x.paths))
	}
	return x.paths[0].s, nil
}

// Stats returns the executor's work counters.
func (x *Executor[S, E]) Stats() Stats { return x.stats }

// LivePaths returns the number of currently live paths.
func (x *Executor[S, E]) LivePaths() int { return len(x.paths) }

// Err returns the sticky error, if any.
func (x *Executor[S, E]) Err() error { return x.err }
