package sym

import "repro/internal/wire"

// Batch execution: FeedBatch processes a key's whole event vector with
// strategies the record-at-a-time loop cannot use, observationally
// identical to feeding the records one by one (the equivalence and
// metamorphic tests, and the golden digests, pin it). Three regimes,
// chosen per position in the vector:
//
//   - Run folding (feedRun): a run of identical events (≥ minRunLen, or
//     a whole vector of two or more) has one transition summary T, so
//     the run folds as a unit (stats.RunProbes): skipped when T is the
//     identity (a push on a push-only group), else applied as Tⁿ by
//     square-and-multiply (composition is associative and exact, §3.6).
//     A per-event run cache (runEntry) keeps an event's identity verdict,
//     its ladder T^(2^k) and its powers below runPowBound across keys.
//   - In-place windows (feedWindow): after windowQuiet fork-free records,
//     live paths are checkpointed once per window and updated in place.
//     A fork mid-window rolls back, replays the fork-free prefix (Update
//     is deterministic) and hands the forking record to the scalar feed.
//   - Scalar feed: everything else — records near a fork, short runs.
const (
	// minRunLen is the shortest run worth a transition probe.
	minRunLen = 4
	// batchWindow bounds a window, and so a fork's replay.
	batchWindow = 64
	// windowQuiet is the fork-free streak that starts windows.
	windowQuiet = 3
	// runCacheCap bounds the run cache: eight entries hold a query's
	// event alphabet (an op code, a small enum) and scan cheaply.
	runCacheCap = 8
	// runPowBound bounds the run lengths whose powers a cache entry
	// keeps: a shorter run (T1's are 4–26 long) is served its Tⁿ whole,
	// a longer one (R1's 100–140) multiplies it out of the ladder.
	runPowBound = 64
)

// FeedBatch processes a key's event vector. Equivalent to calling Feed
// on each event in order; a returned error is sticky. Up to
// maxEventGroup events right after a Reset, given the event codec, are
// copied, not explored: a group of them ships its events (AppendBundle).
func (x *Executor[S, E]) FeedBatch(evs []E) (err error) {
	if err := x.flush(); err != nil || len(evs) == 0 {
		return err
	}
	defer x.catch(&err)
	if x.empty && len(evs) <= maxEventGroup && x.encodeEvent != nil {
		x.empty, x.pending = false, true
		x.group = append(x.group[:0], evs...)
		x.stats.Records += len(evs)
		return nil
	}
	x.empty, x.group = false, x.group[:0]
	x.feedBatch(evs)
	return nil
}

// feedBatch is FeedBatch's exploration: each regime in turn, as the
// vector's position calls for it.
func (x *Executor[S, E]) feedBatch(evs []E) {
	if !x.eqInit {
		x.initEq()
	}
	i := 0
	for i < len(evs) {
		if x.eq != nil {
			if ce := x.runLookup(evs[i]); ce != nil && ce.ident {
				// A run of a known-identity event advances no path no
				// matter the regime — concrete included, since the
				// identity maps every state to itself. Skip it outright;
				// only the record count moves.
				j := i + x.identScan(evs[i:], evs[i])
				x.stats.RunProbes++
				x.stats.Records += j - i
				x.noForkRun = min(x.noForkRun+(j-i), windowQuiet)
				i = j
				continue
			}
			if !x.fastConcrete {
				j := i + x.identScan(evs[i:], evs[i])
				// A run shorter than minRunLen still folds when it spans
				// the whole vector: high-cardinality groups are often two
				// or three identical events, and folding them once is how
				// the run cache gets seeded for the O(1) skip above.
				if j-i >= minRunLen || (i == 0 && j == len(evs) && j >= 2) {
					x.feedRun(evs[i], j-i)
					i = j
					continue
				}
			}
		}
		if x.fastConcrete || x.noForkRun >= windowQuiet {
			hi := min(len(evs), i+batchWindow)
			i += x.feedWindow(evs[i:hi])
			continue
		}
		x.feed(evs[i])
		i++
	}
}

// IdentityBundle recognizes a key whose every event is a known identity
// and returns its bundle directly: identity transitions advance no path,
// so the summary is one fresh symbolic path, constant bytes built once
// and shared read-only by every such key. The key's whole
// Reset/FeedBatch/AppendBundle cycle collapses to a scan that leaves the
// live paths alone — most of G1's keys finish here.
//
// It returns nil when the vector is not provably all-identity (an event
// with no or a non-identity verdict, or no cheap comparison), and, given
// the event codec, for every group of at most maxEventGroup events, which
// ships its events so that its form never depends on the keys the
// executor ran before. Callers then take the regular path, which seeds
// the run cache (feedRun).
func (x *Executor[S, E]) IdentityBundle(evs []E) []byte {
	// identHotSet says an identity verdict is cached; runs of the hot
	// identity cost one typed scan, other events a cache scan.
	if x.err != nil || len(evs) == 0 || x.eq == nil || !x.identHotSet ||
		(len(evs) <= maxEventGroup && x.encodeEvent != nil) {
		return nil
	}
	hot, scan := x.identHotEv, x.identScan
	for i := 0; i < len(evs); i++ {
		i += scan(evs[i:], hot)
		if i >= len(evs) {
			break
		}
		if ce := x.runLookup(evs[i]); ce == nil || !ce.ident {
			return nil
		}
	}
	if x.identBundle == nil {
		p := x.fresh()
		ps, _ := x.compact([]*pathState[S]{p})
		var e wire.Encoder
		e.Uvarint(1)
		encodePaths(&e, ps)
		x.identBundle = e.Bytes()[:e.Len():e.Len()]
		x.put(p)
	}
	x.stats.RunProbes++
	x.stats.Records += len(evs)
	x.noForkRun = min(x.noForkRun+len(evs), windowQuiet)
	return x.identBundle
}

// runEntry is what the run cache knows of one event. Its transition T is
// built deterministically from the fresh symbolic state, so the event
// alone determines the identity verdict, the squaring ladder
// ladder[k] = T^(2^k) and the powers pow[n] = Tⁿ (n < runPowBound and
// not a power of two, which is a rung), all owned by the executor, their
// vectors' elements in the entry's vecs, which eviction reclaims.
type runEntry[S State, E any] struct {
	ev     E
	ident  bool
	ladder []*transition[S]
	pow    [runPowBound]*transition[S]
	vecs   vecArena
}

// runLookup returns ev's cache entry, or nil. Callers must hold a
// non-nil eq.
func (x *Executor[S, E]) runLookup(ev E) *runEntry[S, E] {
	for i := range x.runs {
		if x.eq(ev, x.runs[i].ev) {
			return &x.runs[i]
		}
	}
	return nil
}

// runInsert caches ev with tr, its freshly built transition, as the
// ladder's base, evicting round-robin once full: the evicted entry's
// transitions retire to the stack and its slices are reused. The first
// identity event found is pinned as the hot event for the per-record
// skip in feedWindow.
func (x *Executor[S, E]) runInsert(ev E, tr *transition[S]) *runEntry[S, E] {
	var ce *runEntry[S, E]
	if len(x.runs) < runCacheCap {
		x.runs = append(x.runs, runEntry[S, E]{})
		ce = &x.runs[len(x.runs)-1]
	} else {
		ce = &x.runs[x.runPos]
		x.runPos = (x.runPos + 1) % runCacheCap
		for _, t := range ce.ladder {
			x.releaseTransition(t)
		}
		for i, t := range &ce.pow {
			if t != nil {
				x.releaseTransition(t)
				ce.pow[i] = nil
			}
		}
		ce.vecs.reset()
	}
	ce.ev, ce.ident, ce.ladder = ev, x.isIdentity(tr), append(ce.ladder[:0], x.keep(ce, tr))
	if ce.ident && !x.identHotSet {
		x.identHotEv, x.identHotSet = ev, true
	}
	return ce
}

// initEq specializes the run-detection comparison for the event types
// the queries use; other event types never fold runs.
func (x *Executor[S, E]) initEq() {
	x.eqInit = true
	switch f := any(&x.eq).(type) {
	case *func(int64, int64) bool:
		*f = func(a, b int64) bool { return a == b }
		*any(&x.identScan).(*func([]int64, int64) int) = scanEq[int64]
		*any(&x.identCompact).(*func([]int64, []int64, int64) int) = compactNe[int64]
	case *func(int, int) bool:
		*f = func(a, b int) bool { return a == b }
		*any(&x.identScan).(*func([]int, int) int) = scanEq[int]
		*any(&x.identCompact).(*func([]int, []int, int) int) = compactNe[int]
	case *func(struct{}, struct{}) bool:
		*f = func(struct{}, struct{}) bool { return true }
		*any(&x.identScan).(*func([]struct{}, struct{}) int) = func(evs []struct{}, _ struct{}) int { return len(evs) }
		*any(&x.identCompact).(*func([]struct{}, []struct{}, struct{}) int) = func(_, _ []struct{}, _ struct{}) int { return 0 }
	case *func(string, string) bool:
		*f = func(a, b string) bool { return a == b }
		*any(&x.identScan).(*func([]string, string) int) = scanEq[string]
		*any(&x.identCompact).(*func([]string, []string, string) int) = compactNe[string]
	}
}

// scanEq counts the leading events equal to hot, the comparison inlined
// at the concrete type.
func scanEq[T comparable](evs []T, hot T) int {
	for i, e := range evs {
		if e != hot {
			return i
		}
	}
	return len(evs)
}

// compactNe writes src's events that differ from hot into dst (len ≥
// len(src)), in order, and returns how many: the store is unconditional
// and the index advance a flag add, so no branch depends on the data.
func compactNe[T comparable](dst, src []T, hot T) int {
	j := 0
	for _, e := range src {
		dst[j] = e
		if e != hot {
			j++
		}
	}
	return j
}

// feedWindow advances every live path in place over a fork-free prefix
// of evs, returning how many events were consumed (always ≥ 1). Updating
// a path that does not fork in place is the scalar feed's
// clone-then-update, so the only speculation is fork-freedom, repaired
// by checkpoint rollback.
func (x *Executor[S, E]) feedWindow(evs []E) int {
	// The hot identity event (G1's push between other ops) advances no
	// path on any state: it is skipped per record, Update never called.
	skipID := x.identHotSet && x.eq != nil
	eq, hot := x.eq, x.identHotEv
	if x.fastConcrete {
		x.concreteTail(evs, skipID, hot)
		return len(evs)
	}
	x.saveCkpt()
	for k := 0; k < len(evs); k++ {
		ev := evs[k]
		if skipID && eq(ev, hot) {
			// Swallow the whole identity run with one stats update.
			j := k + x.identScan(evs[k:], hot)
			x.stats.Records += j - k
			x.noForkRun = min(x.noForkRun+(j-k), windowQuiet)
			k = j - 1
			continue
		}
		forked := false
		for _, p := range x.paths {
			x.ctx.reset()
			x.ctx.begin()
			x.stats.Runs++
			x.update(&x.ctx, p.s, ev)
			// Concrete fields cannot fork (the scalar feed relies on the
			// same invariant); checking the recorded choices costs the
			// same either way.
			if x.ctx.advance() {
				forked = true
				break
			}
		}
		if forked {
			// Roll back and replay the fork-free prefix (identity events
			// skipped, as on the way in), then hand the forking record to
			// the scalar feed and its explore/merge/restart bookkeeping.
			for pi, p := range x.paths {
				p.copyFrom(x.ckpt[pi])
			}
			for _, prev := range evs[:k] {
				if skipID && eq(prev, hot) {
					continue
				}
				for _, p := range x.paths {
					x.ctx.reset()
					x.ctx.begin()
					x.stats.Runs++
					x.update(&x.ctx, p.s, prev)
				}
			}
			x.feed(ev)
			return k + 1
		}
		x.stats.Records++
		x.noForkRun = min(x.noForkRun+1, windowQuiet)
		if len(x.paths) == 1 && allConcreteFields(x.paths[0].fs) {
			// The single live path went fully concrete mid-window (a
			// gate-style UDA): it cannot fork, so the rest of the window
			// runs in the tight concrete loop.
			x.fastConcrete = true
			x.concreteTail(evs[k+1:], skipID, hot)
			return len(evs)
		}
	}
	x.fastConcrete = len(x.paths) == 1 && allConcreteFields(x.paths[0].fs)
	return len(evs)
}

// concreteTail runs evs over the single fully concrete live path, which
// cannot fork, so one context reset covers the stretch. With an identity
// event pinned, it first compacts the advancing events branchlessly (a
// corpus interleaves them with identities unpredictably), then updates
// over the dense vector.
func (x *Executor[S, E]) concreteTail(evs []E, skipID bool, hot E) {
	p := x.paths[0]
	upd := x.update
	x.ctx.reset()
	x.ctx.begin()
	n, runs := len(evs), len(evs)
	if skipID {
		if cap(x.evBuf) < n {
			x.evBuf = make([]E, n)
		}
		buf := x.evBuf[:n]
		runs = x.identCompact(buf, evs, hot)
		for _, ev := range buf[:runs] {
			upd(&x.ctx, p.s, ev)
		}
	} else {
		for _, ev := range evs {
			upd(&x.ctx, p.s, ev)
		}
	}
	x.stats.Records += n
	x.stats.Runs += runs
}

// saveCkpt snapshots every live path into checkpoint containers claimed
// once, so a window costs field copies only.
func (x *Executor[S, E]) saveCkpt() {
	for len(x.ckpt) < len(x.paths) {
		x.ckpt = append(x.ckpt, x.get())
	}
	for pi, p := range x.paths {
		x.ckpt[pi].copyFrom(p)
	}
}

// feedRun folds a run of n identical events as a unit; a miss builds T
// once and caches it. Any failure along the way (unbuildable transition,
// overflow, path blow-up while powering) falls back to the scalar feed.
func (x *Executor[S, E]) feedRun(ev E, n int) {
	x.stats.RunProbes++
	ce := x.runLookup(ev)
	if ce == nil {
		tr := x.buildTransition(ev)
		if tr == nil {
			x.feedLoop(ev, n)
			return
		}
		ce = x.runInsert(ev, tr)
	}
	if ce.ident {
		// T is the identity on every state, so T^n is too: the run
		// advances no path and only the record count moves.
		x.stats.Records += n
		x.noForkRun = min(x.noForkRun+n, windowQuiet)
		return
	}
	pow, powOwned := x.power(ce, n)
	if pow == nil {
		x.feedLoop(ev, n)
		return
	}
	// A fold past the live-path cap falls back too: record by record,
	// the restart lands on the record that first exceeds the cap, which
	// may be inside the run.
	next := x.scratch[:0]
	ok := true
	for _, p := range x.paths {
		if next, ok = x.composeOnto(next, p, pow); !ok || len(next) > x.opts.MaxLivePaths {
			ok = false
			break
		}
	}
	if powOwned {
		x.releaseTransition(pow)
	}
	if !ok {
		x.putAll(next)
		x.feedLoop(ev, n)
		return
	}
	x.putAll(x.paths)
	x.stats.Records += n
	x.settle(next, n)
}

// feedLoop is the scalar fallback for a run feedRun could not fold.
func (x *Executor[S, E]) feedLoop(ev E, n int) {
	for k := 0; k < n; k++ {
		x.feed(ev)
	}
}

// isIdentity reports whether tr maps every state to itself: one path
// whose every field has the fresh state's transfer and constraint.
func (x *Executor[S, E]) isIdentity(tr *transition[S]) bool {
	if len(tr.ps) != 1 {
		return false
	}
	fresh := x.fresh()
	same := true
	for i, f := range tr.ps[0].fs {
		if !f.SameTransfer(fresh.fs[i]) || !f.ConstraintEq(fresh.fs[i]) {
			same = false
			break
		}
	}
	x.put(fresh)
	return same
}

// power returns Tⁿ for ce's event by square-and-multiply over its
// ladder, rungs added as longer runs need them: composition is exact,
// associative and deterministic (§3.6), so order cannot change results
// and a power kept in ce.pow is the one rebuilding it would give. nil
// means an intermediate failed or passed the live-path cap. The result
// is the caller's to release (owned) only for n ≥ runPowBound not a
// power of two; otherwise ce keeps it.
func (x *Executor[S, E]) power(ce *runEntry[S, E], n int) (*transition[S], bool) {
	if n < runPowBound && ce.pow[n] != nil {
		return ce.pow[n], false
	}
	var result *transition[S]
	resultOwned := false
	for k, m := 0, n; m > 0; k++ {
		if k == len(ce.ladder) {
			next := x.composeTransitions(ce.ladder[k-1], ce.ladder[k-1])
			if next == nil {
				if resultOwned {
					x.releaseTransition(result)
				}
				return nil, false
			}
			ce.ladder = append(ce.ladder, x.keep(ce, next))
		}
		if m&1 == 1 {
			if result == nil {
				result = ce.ladder[k] // borrowed rung
			} else {
				nr := x.composeTransitions(result, ce.ladder[k])
				if resultOwned {
					x.releaseTransition(result)
				}
				if nr == nil {
					return nil, false
				}
				result, resultOwned = nr, true
			}
		}
		m >>= 1
	}
	if resultOwned && n < runPowBound {
		ce.pow[n] = x.keep(ce, result)
		return result, false
	}
	return result, resultOwned
}

// composeTransitions builds "a then b" in a retired transition when
// there is one: the cross product of their paths, infeasible pairs
// dropped, merged and capped like the live path set. nil means it could
// not be represented (overflow, past the live cap).
func (x *Executor[S, E]) composeTransitions(a, b *transition[S]) *transition[S] {
	tr := x.newTransition()
	var err error
	for _, pa := range a.ps {
		if tr.ps, err = x.composeAfter(tr.ps, pa, b.ps, &x.senv); err != nil {
			break
		}
	}
	if err == nil && len(tr.ps) > 0 && !x.opts.DisableMerging {
		var m int
		tr.ps, m = x.merge(tr.ps)
		x.stats.Merges += m
	}
	if err != nil || len(tr.ps) == 0 || len(tr.ps) > x.opts.MaxLivePaths {
		x.releaseTransition(tr)
		return nil
	}
	return tr
}

// newTransition returns a retired transition, paths empty, or a new one.
func (x *Executor[S, E]) newTransition() *transition[S] {
	if n := len(x.trs); n > 0 {
		tr := x.trs[n-1]
		x.trs = x.trs[:n-1]
		return tr
	}
	return new(transition[S])
}

// releaseTransition retires tr and its paths.
func (x *Executor[S, E]) releaseTransition(tr *transition[S]) {
	x.putAll(tr.ps)
	tr.ps = tr.ps[:0]
	x.trs = append(x.trs, tr)
}

// keep moves the elements of a transition ce keeps past the key into
// ce's storage: Reset reclaims the storage it was built in.
func (x *Executor[S, E]) keep(ce *runEntry[S, E], tr *transition[S]) *transition[S] {
	for _, p := range tr.ps {
		x.sc.detach(p, &ce.vecs)
	}
	return tr
}
