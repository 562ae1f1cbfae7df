// Package symple is the public API of the SYMPLE reproduction: symbolic
// data types, the symbolic-execution engine, symbolic summaries, the
// groupby-aggregate query runtime with its three engines (Sequential,
// Baseline MapReduce, SYMPLE), and the MapReduce substrate they run on.
//
// SYMPLE (SOSP 2015) parallelizes user-defined aggregations (UDAs) with
// loop-carried dependences by running them symbolically on each input
// chunk from an unknown initial state and composing the resulting
// symbolic summaries in input order — "symbolic parallelism".
//
// A minimal UDA (the paper's running example, max of a list):
//
//	type MaxState struct{ Max symple.SymInt }
//
//	func (s *MaxState) Fields() []symple.Value { return []symple.Value{&s.Max} }
//
//	x := symple.NewExecutor(
//		func() *MaxState { return &MaxState{Max: symple.NewSymInt(math.MinInt64)} },
//		func(ctx *symple.Ctx, s *MaxState, e int64) {
//			if s.Max.Lt(ctx, e) {
//				s.Max.Set(e)
//			}
//		},
//		symple.DefaultOptions(),
//	)
//	for _, e := range chunk {
//		_ = x.Feed(e)
//	}
//	summaries, _ := x.Finish() // compact, serializable, composable
//
// Finish is the snapshot API: it copies the executor's paths into
// summaries the caller owns, to compose (ComposeAll), apply (ApplyAll) or
// stream (StreamComposer) at leisure. The query runtime's own mappers
// (RunSymple) never materialize summaries — they encode each group's
// bundle straight from the executor's paths.
//
// See the examples/ directory for complete programs, including the
// paper's Figure 1 purchase-funnel UDA and the §4.4 GPS sessionization
// UDA, and the internal/queries package for the 12 evaluation queries.
package symple

import (
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/sym"
)

// Symbolic data types (paper §4).
type (
	// Ctx is the per-run symbolic execution context.
	Ctx = sym.Ctx
	// Value is the interface all symbolic data types implement.
	Value = sym.Value
	// State is implemented by user aggregation-state structs.
	State = sym.State
	// SymInt is a symbolic 64-bit integer (canonical form lb≤x≤ub ⇒ a·x+b).
	SymInt = sym.SymInt
	// SymEnum is a symbolic enumeration over a bounded domain (≤ 64).
	SymEnum = sym.SymEnum
	// SymBool is a symbolic boolean.
	SymBool = sym.SymBool
	// SymPred is a black-box-predicate holder for windowed dependences.
	SymPred[T any] = sym.SymPred[T]
	// SymVector is an append-only vector of concrete elements.
	SymVector[T any] = sym.SymVector[T]
	// SymIntVector is an append-only vector of possibly symbolic int64s.
	SymIntVector = sym.SymIntVector
	// Codec serializes and compares user element types.
	Codec[T any] = sym.Codec[T]
	// Options tunes the engine's path-explosion controls.
	Options = sym.Options
	// Stats counts an executor's symbolic work.
	Stats = sym.Stats
	// Env resolves cross-field references during summary application.
	Env = sym.Env
	// SymEnv carries scalar transfers during symbolic-on-symbolic
	// composition; custom Value implementations receive it.
	SymEnv = sym.SymEnv
)

// Engine and summaries (paper §3, §5).
type (
	// Executor explores all feasible paths of a UDA over a record stream.
	Executor[S sym.State, E any] = sym.Executor[S, E]
	// Summary is a symbolic summary: path constraints ⇒ transfer functions.
	Summary[S sym.State] = sym.Summary[S]
)

// Query runtime (paper §1.2, §5.4).
type (
	// Query is a groupby-aggregate query with a UDA. Its GroupBy may
	// return a key that points into the record, a field of it: keys
	// are read, never written, and the engines copy those they keep.
	// Its event codec (EncodeEvent/DecodeEvent) serves both engines
	// that shuffle: the baseline ships every event, SYMPLE the events
	// of a (mapper, key) group that holds at most eight; both rely on
	// a decoded event looking the same to Update as the one encoded.
	Query[S sym.State, E, R any] = core.Query[S, E, R]
	// Output is an engine run's results and metrics.
	Output[R any] = core.Output[R]
	// SymStats aggregates mapper-side symbolic work for a run.
	SymStats = core.SymStats
)

// MapReduce substrate.
type (
	// Segment is one ordered chunk of the distributed input.
	Segment = mapreduce.Segment
	// Config configures a MapReduce job.
	Config = mapreduce.Config
	// Metrics reports a job's bytes, records and task costs.
	Metrics = mapreduce.Metrics
)

// Constructors and helpers.
var (
	// NewSymInt returns a SymInt bound to the given initial value.
	NewSymInt = sym.NewSymInt
	// NewSymEnum returns a SymEnum over domain n bound to c.
	NewSymEnum = sym.NewSymEnum
	// NewSymBool returns a SymBool bound to v.
	NewSymBool = sym.NewSymBool
	// NewSymIntVector returns an empty SymIntVector.
	NewSymIntVector = sym.NewSymIntVector
	// Int64Codec is a Codec for int64 elements.
	Int64Codec = sym.Int64Codec
	// StringCodec is a Codec for string elements.
	StringCodec = sym.StringCodec
	// DefaultOptions returns the paper's engine settings.
	DefaultOptions = sym.DefaultOptions
)

// NewSymPred returns a SymPred holding the concrete initial value v.
func NewSymPred[T any](pred func(held, arg T) bool, codec Codec[T], v T) SymPred[T] {
	return sym.NewSymPred(pred, codec, v)
}

// NewSymVector returns an empty SymVector using codec.
func NewSymVector[T any](codec Codec[T]) SymVector[T] {
	return sym.NewSymVector(codec)
}

// NewExecutor returns an executor starting from a fresh symbolic state —
// the mapper side of SYMPLE.
func NewExecutor[S State, E any](newState func() S, update func(*Ctx, S, E), opts Options) *Executor[S, E] {
	return sym.NewExecutor(newState, update, opts)
}

// NewConcreteExecutor returns an executor starting from the concrete
// initial state — the sequential reference execution.
func NewConcreteExecutor[S State, E any](newState func() S, update func(*Ctx, S, E), opts Options) *Executor[S, E] {
	return sym.NewConcreteExecutor(newState, update, opts)
}

// ApplyAll composes ordered summaries onto a concrete state.
func ApplyAll[S State](c S, summaries []*Summary[S]) (S, error) {
	return sym.ApplyAll(c, summaries)
}

// ComposeAll reduces ordered summaries to one by composition (§3.6),
// folding them as a balanced pairwise tree. The inputs are not consumed.
func ComposeAll[S State](summaries []*Summary[S]) (*Summary[S], error) {
	return sym.ComposeAll(summaries)
}

// RunSequential executes a query sequentially (the reference semantics).
func RunSequential[S State, E, R any](q *Query[S, E, R], segments []*Segment) (*Output[R], error) {
	return core.RunSequential(q, segments)
}

// RunBaseline executes a query as the hand-optimized Hadoop baseline.
func RunBaseline[S State, E, R any](q *Query[S, E, R], segments []*Segment, conf Config) (*Output[R], error) {
	return core.RunBaseline(q, segments, conf)
}

// RunSymple executes a query with symbolic parallelism.
func RunSymple[S State, E, R any](q *Query[S, E, R], segments []*Segment, conf Config) (*Output[R], error) {
	return core.RunSymple(q, segments, conf)
}

// ReadSegments loads ordered input segments from a directory of
// newline-delimited files written by cmd/datagen. The files are mapped,
// not copied: keep a segment reachable while its Records are read
// (runtime.KeepAlive), and copy a record that must outlive it.
func ReadSegments(dir string) ([]*Segment, error) {
	return mapreduce.ReadSegments(dir)
}

// StreamComposer folds chunk summaries incrementally as they arrive,
// possibly out of order.
type StreamComposer[S State] = sym.StreamComposer[S]

// NewStreamComposer starts an incremental composer from the initial
// concrete state.
func NewStreamComposer[S State](newState func() S) *StreamComposer[S] {
	return sym.NewStreamComposer(newState)
}

// ResultSegments converts a query's output into input segments for a
// downstream query stage.
func ResultSegments[R any](out *Output[R], format func(key string, r R) [][]byte, numSegments int) []*Segment {
	return core.ResultSegments(out, format, numSegments)
}
