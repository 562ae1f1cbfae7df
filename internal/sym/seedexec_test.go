package sym

import "fmt"

// SeedExecutor is the pre-optimization symbolic executor, frozen
// verbatim: per-record Fields() walks, reflection-free but
// allocation-heavy cloning, no schema, no run folding. It is retained,
// in this test file only, as the byte-level equivalence oracle for the
// schema-compiled Executor and as the benchmark baseline the symexec experiment
// measures against. Not intended for production runs.
type SeedExecutor[S State, E any] struct {
	newState     func() S
	update       func(*Ctx, S, E)
	opts         Options
	ctx          Ctx
	paths        []S
	scratch      []S // recycled backing array for the next-paths slice
	pool         []S // retired states recycled for clones
	fastConcrete bool
	done         []*Summary[S]
	maxSeen      int
	err          error
	stats        Stats
}

// NewSeedExecutor returns a seed-engine executor starting from a fresh
// symbolic state, the mapper side of SYMPLE.
func NewSeedExecutor[S State, E any](newState func() S, update func(*Ctx, S, E), opts Options) *SeedExecutor[S, E] {
	x := &SeedExecutor[S, E]{
		newState: newState,
		update:   update,
		opts:     opts.withDefaults(),
	}
	x.paths = []S{freshSymbolic(newState)}
	x.maxSeen = 1
	x.stats.MaxLive = 1
	return x
}

// Feed processes one input record, advancing every live path. A returned
// error (path explosion, overflow) is sticky: the executor is dead.
func (x *SeedExecutor[S, E]) Feed(rec E) (err error) {
	if x.err != nil {
		return x.err
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			x.err = f.err
			err = f.err
		}
	}()
	x.feed(rec)
	return nil
}

func (x *SeedExecutor[S, E]) feed(rec E) {
	x.stats.Records++
	if x.fastConcrete {
		x.ctx.reset()
		x.ctx.begin()
		x.stats.Runs++
		x.update(&x.ctx, x.paths[0], rec)
		return
	}
	next := x.scratch[:0]
	for _, p := range x.paths {
		if allConcrete(p) {
			x.ctx.reset()
			x.ctx.begin()
			x.stats.Runs++
			x.update(&x.ctx, p, rec)
			next = append(next, p)
			continue
		}
		x.ctx.reset()
		for {
			x.ctx.begin()
			x.stats.Runs++
			if x.ctx.runs > x.opts.MaxRunsPerRecord {
				fail(ErrPathExplosion)
			}
			run := x.clone(p)
			x.update(&x.ctx, run, rec)
			next = append(next, run)
			if !x.ctx.advance() {
				break
			}
		}
		x.pool = append(x.pool, p)
	}
	x.scratch = x.paths
	x.paths = next

	if len(x.paths) > x.maxSeen {
		if !x.opts.DisableMerging {
			var m int
			x.paths, m = mergeAll(x.paths)
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
		x.done = append(x.done, NewSummary(x.newState, x.paths))
		x.paths = []S{freshSymbolic(x.newState)}
		x.maxSeen = 1
		x.stats.Restarts++
	}
	x.fastConcrete = len(x.paths) == 1 && allConcrete(x.paths[0])
}

// clone deep-copies src into a pooled or fresh state.
func (x *SeedExecutor[S, E]) clone(src S) S {
	var dst S
	if n := len(x.pool); n > 0 {
		dst = x.pool[n-1]
		x.pool = x.pool[:n-1]
	} else {
		dst = x.newState()
	}
	df, sf := dst.Fields(), src.Fields()
	if len(df) != len(sf) {
		fail(ErrStateMismatch)
	}
	for i := range df {
		df[i].CopyFrom(sf[i])
	}
	return dst
}

// Finish returns the ordered symbolic summaries for everything fed so
// far.
func (x *SeedExecutor[S, E]) Finish() ([]*Summary[S], error) {
	if x.err != nil {
		return nil, x.err
	}
	out := make([]*Summary[S], 0, len(x.done)+1)
	out = append(out, x.done...)
	out = append(out, NewSummary(x.newState, x.paths))
	return out, nil
}

// ConcreteState returns the single live state of a concrete execution.
func (x *SeedExecutor[S, E]) ConcreteState() (S, error) {
	var zero S
	if x.err != nil {
		return zero, x.err
	}
	if len(x.done) != 0 || len(x.paths) != 1 || !allConcrete(x.paths[0]) {
		return zero, fmt.Errorf("sym: executor state is symbolic (%d summaries, %d paths)",
			len(x.done), len(x.paths))
	}
	return x.paths[0], nil
}

// Stats returns the executor's work counters.
func (x *SeedExecutor[S, E]) Stats() Stats { return x.stats }

// LivePaths returns the number of currently live paths.
func (x *SeedExecutor[S, E]) LivePaths() int { return len(x.paths) }

// Err returns the sticky error, if any.
func (x *SeedExecutor[S, E]) Err() error { return x.err }

// The seed executor's reflective path helpers, frozen with it: the
// engine proper runs their schema-container forms (allConcreteFields,
// tryMergeFields, containers.merge).

// allConcrete reports whether no field of s depends on symbolic input, in
// which case running the UDA on s cannot fork and needs no cloning — the
// paper's "once bound, as fast as the concrete type but for the bound
// check" fast path.
func allConcrete(s State) bool {
	for _, f := range s.Fields() {
		if !f.IsConcrete() {
			return false
		}
	}
	return true
}

// tryMergePaths merges path b into path a when sound: every field pair
// must have an identical transfer function, and the constraints may
// differ in at most one field whose union is canonical (the union of two
// boxes differing in one dimension is a box). Reports whether the merge
// happened; a is mutated only on success.
func tryMergePaths(a, b State) bool {
	af, bf := a.Fields(), b.Fields()
	if len(af) != len(bf) {
		fail(ErrStateMismatch)
	}
	for i := range af {
		if !af[i].SameTransfer(bf[i]) {
			return false
		}
	}
	diff := -1
	for i := range af {
		if !af[i].ConstraintEq(bf[i]) {
			if diff >= 0 {
				return false
			}
			diff = i
		}
	}
	if diff < 0 {
		// Identical paths; absorbing b is trivially sound.
		return true
	}
	return af[diff].UnionConstraint(bf[diff])
}

// mergeAll repeatedly merges path pairs until no pair merges, returning
// the compacted slice (paper §3.5). Path counts are small (bounded by the
// live-path cap), so the quadratic scan is cheap.
func mergeAll[S State](paths []S) ([]S, int) {
	merged := 0
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if tryMergePaths(paths[i], paths[j]) {
				paths[j] = paths[len(paths)-1]
				paths = paths[:len(paths)-1]
				merged++
				j--
			}
		}
	}
	return paths, merged
}
