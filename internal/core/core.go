// Package core is the SYMPLE runtime: it turns a groupby-aggregate query
// with a user-defined aggregation into MapReduce jobs (paper §1.2, §5.4).
//
// A Query bundles the user's GroupBy (parse a raw record, extract a key
// and an event), the UDA (initial state, Update, Result), and event
// serialization for the baseline engine. Three engines execute the same
// query:
//
//   - RunSequential: one pass, concrete UDA per group — the semantic
//     reference every other engine must match, and the "Sequential" bar
//     of the paper's Figure 4.
//   - RunBaseline: the paper's hand-optimized Hadoop baseline — GroupBy
//     in mappers (shuffling only the event fields the UDA uses), the UDA
//     running concretely in reducers.
//   - RunSymple: the paper's contribution — mappers also run the UDA
//     symbolically per group and shuffle compact symbolic summaries; the
//     reducer folds each key's summaries, in input order, onto the
//     initial state in one pass and applies Result.
//
// SYMPLE "lifts" the aggregation into mappers exactly like built-in
// associative aggregations, parallelizing per-group work and shrinking
// the shuffle — the effects measured across the paper's evaluation.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sym"
	"repro/internal/wire"
)

// Registry metric names observed by the core engines, alongside the
// engine-level metrics in package mapreduce.
const (
	// MetricSummaryBytes is a histogram of encoded summary-bundle sizes
	// as shipped to the shuffle, one observation per (mapper, group).
	MetricSummaryBytes = "summary_bytes"
)

// Query is a groupby-aggregate query over raw input records.
type Query[S sym.State, E, R any] struct {
	// Name identifies the query (e.g. "G1").
	Name string

	// GroupBy parses one raw input record, returning the group key and
	// the event the UDA consumes. ok=false drops the record (filter).
	// Only fields the UDA needs should be propagated into E — the same
	// hand-optimization the paper applies to its baseline. It must be a
	// pure function of the record: a segment keeps its output for every
	// later job of the query.
	GroupBy func(record []byte) (key string, event E, ok bool)

	// NewState returns the initial aggregation state.
	NewState func() S

	// Update advances the aggregation state by one event. It must
	// confine all side effects to the state (paper §2.1).
	Update func(*sym.Ctx, S, E)

	// Result extracts the query result from the final state. It must be
	// pure; it runs on a fully concrete state.
	Result func(key string, s S) R

	// EncodeEvent/DecodeEvent serialize events for the baseline's
	// shuffle and SYMPLE's, where a small (mapper, key) group ships its
	// events (sym.NewEventSchema); both rely on
	// DecodeEvent(EncodeEvent(e)) looking the same to Update as e.
	EncodeEvent func(*wire.Encoder, E)
	DecodeEvent func(*wire.Decoder) (E, error)

	// Options tunes the symbolic engine; zero means paper defaults.
	Options sym.Options
}

// validateQuery checks the query's programmer contract before it runs: the
// analogue of the paper's §5.3 static verification of user code, with
// reflection standing in for what C++'s type system could not express.
func validateQuery[S sym.State, E, R any](q *Query[S, E, R]) error {
	if q.GroupBy == nil || q.NewState == nil || q.Update == nil || q.Result == nil {
		return fmt.Errorf("core %q: GroupBy, NewState, Update and Result are required", q.Name)
	}
	if err := sym.ValidateState(q.NewState); err != nil {
		return fmt.Errorf("core %q: %w", q.Name, err)
	}
	return nil
}

// SymStats aggregates symbolic-execution work across all mapper-side
// executors of a run.
type SymStats struct {
	Records  int // events fed to symbolic executors
	Runs     int // Update invocations (symbolic overhead factor)
	Merges   int
	Restarts int
	// Summaries counts the elements shuffled: summaries, and the small
	// groups that ship their events instead (Events of them).
	Summaries int
	Events    int
	// RunProbes counts runs of identical events the executor folded as
	// a unit.
	RunProbes int
	// ExecWall is the wall time spent inside the symbolic-execution pass
	// of the map chunks (feeding grouped events and finishing executors),
	// excluding record parsing and grouping, summed across chunks. It
	// isolates the engine cost from the parse cost every engine shares.
	ExecWall time.Duration
}

// Output is the result of running a query under any engine.
type Output[R any] struct {
	Results map[string]R
	Metrics *mapreduce.Metrics
	Sym     SymStats
}

// Keys returns the sorted group keys, for deterministic iteration.
func (o *Output[R]) Keys() []string {
	keys := make([]string, 0, len(o.Results))
	for k := range o.Results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunSequential executes the query in one sequential pass: the reference
// semantics. Events are grouped per key preserving global input order and
// the UDA runs concretely.
func RunSequential[S sym.State, E, R any](q *Query[S, E, R], segments []*mapreduce.Segment) (*Output[R], error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	start := time.Now()
	m := &mapreduce.Metrics{}
	execs := make(map[string]*sym.Executor[S, E])
	var order []string
	for _, seg := range segments {
		m.InputBytes += seg.Bytes()
		m.InputRecords += int64(len(seg.Records))
		for _, rec := range seg.Records {
			key, ev, ok := q.GroupBy(rec)
			if !ok {
				continue
			}
			x := execs[key]
			if x == nil {
				x = sym.NewConcreteExecutor(q.NewState, q.Update, q.Options)
				execs[key] = x
				order = append(order, key)
			}
			if err := x.Feed(ev); err != nil {
				return nil, fmt.Errorf("core %q: sequential key %q: %w", q.Name, key, err)
			}
		}
	}
	results := make(map[string]R, len(execs))
	for _, key := range order {
		s, err := execs[key].ConcreteState()
		if err != nil {
			return nil, fmt.Errorf("core %q: sequential key %q: %w", q.Name, key, err)
		}
		results[key] = q.Result(key, s)
	}
	m.Groups = int64(len(execs))
	m.TotalWall = time.Since(start)
	m.MapCPU = m.TotalWall
	return &Output[R]{Results: results, Metrics: m}, nil
}

// Baseline is the paper's hand-optimized Hadoop baseline as its two
// halves: Map groups each record and emits the UDA's event fields under
// the key, recordID its index in the segment; Reduce runs the UDA
// concretely over one key's values in shuffle order and returns the
// result. RunBaseline runs the pair as one job over the engine's shuffle;
// a caller with a shuffle of its own (Fig 4 pipes the map output through
// Unix sort) runs the same pair around it.
type Baseline[R any] struct {
	Map    mapreduce.MapFunc
	Reduce func(key string, values []mapreduce.Shuffled) (R, error)
}

// NewBaseline builds the query's baseline pair; trace, which may be nil,
// receives its map-parse spans.
func NewBaseline[S sym.State, E, R any](q *Query[S, E, R], trace *obs.Trace) (*Baseline[R], error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	if q.EncodeEvent == nil || q.DecodeEvent == nil {
		return nil, fmt.Errorf("core %q: the baseline engine requires EncodeEvent/DecodeEvent", q.Name)
	}
	return &Baseline[R]{
		Map: func(mapperID int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
			span := trace.Start(obs.KindMapParse, fmt.Sprintf("parse-%d", mapperID)).
				Attr(obs.AttrTask, int64(mapperID))
			emitted := int64(0)
			for i, rec := range seg.Records {
				key, ev, ok := q.GroupBy(rec)
				if !ok {
					continue
				}
				e := wire.NewEncoder(16)
				q.EncodeEvent(e, ev)
				emit(key, int64(i), e.Bytes())
				emitted++
			}
			span.Attr(obs.AttrRecords, int64(len(seg.Records))).
				Attr(obs.AttrValues, emitted).Attr(obs.AttrBatchRecords, emitted).End()
			return nil
		},
		Reduce: func(key string, values []mapreduce.Shuffled) (R, error) {
			var zero R
			x := sym.NewConcreteExecutor(q.NewState, q.Update, q.Options)
			for _, v := range values {
				ev, err := q.DecodeEvent(wire.NewDecoder(v.Value))
				if err != nil {
					return zero, err
				}
				if err := x.Feed(ev); err != nil {
					return zero, err
				}
			}
			s, err := x.ConcreteState()
			if err != nil {
				return zero, err
			}
			return q.Result(key, s), nil
		},
	}, nil
}

// RunBaseline executes the query as the paper's hand-optimized Hadoop
// baseline: mappers group and shuffle (only) the UDA's event fields;
// reducers run the UDA concretely over each ordered group.
func RunBaseline[S sym.State, E, R any](q *Query[S, E, R], segments []*mapreduce.Segment, conf mapreduce.Config) (*Output[R], error) {
	finish := obsAutoVerify(&conf)
	b, err := NewBaseline(q, conf.Trace)
	if err != nil {
		return nil, finish(err)
	}
	var mu sync.Mutex
	results := make(map[string]R)
	job := &mapreduce.Job{
		Name: q.Name + "/baseline",
		Map:  b.Map,
		Reduce: func(_, _ int, key string, values []mapreduce.Shuffled) error {
			r, err := b.Reduce(key, values)
			if err != nil {
				return err
			}
			mu.Lock()
			results[key] = r
			mu.Unlock()
			return nil
		},
		Conf: conf,
	}
	metrics, err := job.Run(segments)
	if err := finish(err); err != nil {
		return nil, err
	}
	return &Output[R]{Results: results, Metrics: metrics}, nil
}

// RunSymple executes the query with symbolic parallelism: each mapper
// groups its segment and runs the UDA symbolically per group, shuffling
// one compact record per (mapper, group) that carries the group's ordered
// symbolic summaries. Reducers fold the summaries in (mapperID,
// recordID) order onto the initial aggregation state — exactly the
// sequential semantics (paper §5.4). It compiles q for this one run; a
// caller that runs q many times compiles it once (Compile) and calls Run.
func RunSymple[S sym.State, E, R any](q *Query[S, E, R], segments []*mapreduce.Segment, conf mapreduce.Config) (*Output[R], error) {
	c, err := Compile(q)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	results := make(map[string]R)
	out, err := c.Run(segments, conf, func(_, _ int, key string, r R) {
		mu.Lock()
		results[key] = r
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	out.Results = results
	return out, nil
}

// Compiled is a query compiled once (paper §5.3: the state is checked
// and the plan fixed before any mapper runs) for every job a process
// runs of it: the validated query, its one state schema — every map
// task's exec site and every reduce task's fold site is built on it —
// and its one pool of each kind of site, from which the tasks of every
// job, in process, in the query service or on a cluster worker, draw
// what the last one left. Safe for concurrent use.
type Compiled[S sym.State, E, R any] struct {
	q     *Query[S, E, R]
	sc    *sym.Schema[S]
	execs sitePool[*batchExec[S, E]]
	folds sitePool[*groupFolder[S]]
}

// Compile validates q and compiles its state schema with its event codec.
func Compile[S sym.State, E, R any](q *Query[S, E, R]) (*Compiled[S, E, R], error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	sc, err := sym.NewEventSchema(q.NewState, q.Update, q.EncodeEvent, q.DecodeEvent)
	if err != nil {
		return nil, fmt.Errorf("core %q: %w", q.Name, err)
	}
	return &Compiled[S, E, R]{q: q, sc: sc}, nil
}

// Schema is the query's one compiled state schema, for a fold site
// outside a job (sym.NewFolder).
func (c *Compiled[S, E, R]) Schema() *sym.Schema[S] { return c.sc }

// Mapper is the map side Run wires into its jobs, for the query service
// and cluster workers: a worker's runs are the bytes the in-process
// engine ships for the same (task, segment), which the transport
// differential tests pin down. trace (nil, or the spans a worker ships
// back) receives its spans. Safe for concurrent attempts.
func (c *Compiled[S, E, R]) Mapper(trace *obs.Trace) mapreduce.MapFunc {
	return sympleMapFunc(c.q, c.sc, &c.execs, nil, nil, trace, nil)
}

// Run is one RunSymple job handing each result to sink where its group
// folds, instead of keeping it: its Output has no Results. Group ordinal
// group of partition part (mapreduce.ReduceFunc) is key, with result r.
// sink is called concurrently for distinct partitions, in ordinal order
// within one; a retried reduce attempt calls it again for ordinals
// 0…n−1, so what it keeps must be written by key or ordinal.
func (c *Compiled[S, E, R]) Run(segments []*mapreduce.Segment, conf mapreduce.Config,
	sink func(part, group int, key string, r R)) (*Output[R], error) {
	finish := obsAutoVerify(&conf)
	var mu sync.Mutex
	stats := SymStats{}
	// One fold site per reduce task, drawn from the pool at its first
	// group: attempts of a task run one after another and tasks never
	// share a partition, so sites[p] has one user at a time. A fold that
	// fails drops its site, and a retry draws another.
	sites := make([]*groupFolder[S], max(conf.NumReducers, 1))
	reduce := func(p, group int, key string, values []mapreduce.Shuffled) error {
		if sites[p] == nil {
			if sites[p] = c.folds.get(); sites[p] == nil {
				sites[p] = newGroupFolder(c.sc)
			}
		}
		// values arrive ordered by (mapperID, recordID): the order the
		// chunks appear in the input.
		final, err := sites[p].fold(values)
		if err != nil {
			sites[p] = nil
			return err
		}
		// Result reads the site's one state, which the next group resets:
		// whatever outlives this call must be taken from it here.
		sink(p, group, key, c.q.Result(key, final))
		return nil
	}
	job := &mapreduce.Job{
		Name:   c.q.Name + "/symple",
		Map:    sympleMapFunc(c.q, c.sc, &c.execs, &mu, &stats, conf.Trace, conf.Registry),
		Reduce: reduce,
		Conf:   conf,
	}
	metrics, err := job.Run(segments)
	// Every reduce task has ended: the sites no fold failed go back.
	for _, site := range sites {
		if site != nil {
			c.folds.put(site)
		}
	}
	if err := finish(err); err != nil {
		return nil, err
	}
	return &Output[R]{Metrics: metrics, Sym: stats}, nil
}

// groupFolder is the reduce of a SYMPLE job — whether its maps ran here
// or on cluster workers: one fold site and the one state every group of
// the partition is folded on in turn. Not safe for concurrent use.
type groupFolder[S sym.State] struct {
	site    *sym.Folder[S]
	state   *sym.FoldState[S]
	bundles [][]byte // the group's bundles, scratch
}

func newGroupFolder[S sym.State](sc *sym.Schema[S]) *groupFolder[S] {
	site := sym.NewFolder(sc)
	return &groupFolder[S]{site: site, state: site.NewState()}
}

// fold folds one group's ordered bundles onto the initial state in one
// call, returning the final state — valid until the next fold.
func (g *groupFolder[S]) fold(values []mapreduce.Shuffled) (S, error) {
	g.site.Reset(g.state)
	g.bundles = g.bundles[:0]
	for _, v := range values {
		g.bundles = append(g.bundles, v.Value)
	}
	if err := g.site.Fold(g.state, g.state, g.bundles...); err != nil {
		var zero S
		return zero, fmt.Errorf("folding a group of %d bundles: %w", len(values), err)
	}
	return g.state.State(), nil
}
