// Package mapreduce is an in-process Hadoop-style execution engine:
// parallel map tasks over ordered input segments, a hash-partitioned
// streaming shuffle of per-mapper spill runs, and parallel reduce tasks
// over per-key groups.
//
// It reproduces the substrate SYMPLE runs on (paper §5.4). Two details
// matter for the reproduction and are modeled faithfully:
//
//   - Ordering. MapReduce treats a group's records as a set, but SYMPLE
//     needs the original input order, so every shuffled record carries the
//     (mapperID, recordID) pair and each group reaches the reducer in that
//     order — the paper's triple (mapper_id, record_id, R). Nothing needs
//     the keys themselves in order, so the engine never sorts by key.
//   - Accounting. The shuffle counts the exact wire bytes crossing the
//     map→reduce boundary, the quantity behind the paper's Figures 6
//     and 8, and per-task wall/CPU costs that the cluster simulator
//     replays at datacenter scale.
//
// The shuffle streams rather than barriers: each map task hands off one
// immutable spill run per reducer, its output for that partition in emit
// order; reduce tasks receive runs over per-partition channels as
// mappers finish and, once all have arrived, read them in mapper order
// and group them by key through a hash index. See rungroup.go and
// pipeline.go.
package mapreduce

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Segment is one ordered slice of the input, as stored in one distributed
// file chunk. Segment IDs order the global input: the concatenation of
// segments by ID is the full dataset.
//
// A Segment is shared by pointer and must not be copied: it carries the
// lock behind its derived state.
type Segment struct {
	ID int
	// Records are the segment's rows, in order: on the heap, or in
	// mappings the segment owns if ReadSegments loaded it. A reader keeps
	// the segment reachable past its last read of a record or a view of
	// one (runtime.KeepAlive), and copies what outlives it.
	Records [][]byte

	// mu guards memo, the state derived from Records and resident with
	// the segment.
	mu   sync.Mutex
	memo segmentMemo
}

// segmentMemo is a segment's derived state, under one rule: it holds
// while len(Records) is rows, and is dropped whole when Records was
// replaced by a slice of another length (Segment.resident).
type segmentMemo struct {
	rows    int
	derived [8]struct{ key, v any } // what callers keep per key (Derived)
	// digest is the content address (digest.go) once digested; size the
	// payload total once sized, by Bytes or the digest's pass. They are
	// typed fields, not Derived entries: no caller's key can crowd them
	// out of the eight slots, and reading them boxes nothing.
	digest          Digest
	size            int64
	digested, sized bool
}

// resident returns the segment's memo, dropped first if Records was
// replaced. The caller holds mu.
func (s *Segment) resident() *segmentMemo {
	if s.memo.rows != len(s.Records) {
		s.memo = segmentMemo{rows: len(s.Records)}
	}
	return &s.memo
}

// Derived returns the state a caller keeps on the segment under key,
// made by fresh the first time key is asked for. key is a comparable
// identity of a pure function of Records (core's is a query's GroupBy);
// the state is shared by every reader, lives as long as the segment and
// goes when Records are replaced. A segment keeps eight
// keys; past them Derived returns nil. Safe for concurrent use.
func (s *Segment) Derived(key any, fresh func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.resident()
	for i := range m.derived {
		d := &m.derived[i]
		if d.key == nil {
			d.key, d.v = key, fresh()
		}
		if d.key == key {
			return d.v
		}
	}
	return nil
}

// Emit sends one keyed record from a mapper into the shuffle. recordID
// is the record's position within the mapper's segment; the shuffle
// orders each group by (mapperID, recordID), so reducers see input
// order within a group regardless of the order of Emit calls —
// monotonicity across calls is not required (records emitted in input
// order just cost no sort). The engine copies value: the mapper may
// reuse its bytes once Emit returns.
type Emit func(key string, recordID int64, value []byte)

// MapFunc processes one input segment. mapperID is the segment's ID.
type MapFunc func(mapperID int, seg *Segment, emit Emit) error

// Shuffled is one record delivered to a reducer, already ordered within
// its group by (MapperID, RecordID), emit order among equal pairs.
type Shuffled struct {
	MapperID int
	RecordID int64
	Value    []byte
}

// ReduceFunc processes one key group. A reduce task calls it once per
// key, in order of the key's first appearance over its runs read by
// mapperID — an order, not a key sort; group is the key's ordinal in
// that order, 0…n−1 within the reducer's partition. The values slice is
// engine scratch: it is valid only for the duration of the call and must
// not be retained; the Value payloads are stable until the reduce task
// ends, when their runs' buffers are recycled. When
// Config.MaxAttempts allows retries, a failed reduce attempt is
// re-executed over the same committed runs and Reduce is re-invoked for
// every group, with the same ordinals in the same order, so its side
// effects must be idempotent per key or per ordinal (e.g. overwriting a
// keyed result, or the ordinal's slot of the partition's results).
type ReduceFunc func(reducerID, group int, key string, values []Shuffled) error

// Config configures a job.
type Config struct {
	// NumReducers is the reduce-task count. Default 1.
	NumReducers int
	// Parallelism caps concurrently running tasks. Default GOMAXPROCS.
	Parallelism int

	// MaxAttempts is the per-task attempt budget: a failed map or reduce
	// attempt is retried with capped exponential backoff until it
	// succeeds or the budget is exhausted, after which the job fails
	// with the task errors aggregated into one multi-error. Default 1
	// (no retries — the pre-lifecycle behavior).
	MaxAttempts int
	// RetryBackoff is the delay before a task's second attempt; it
	// doubles per further attempt, capped at maxBackoffFactor (50) times
	// itself. Default 1ms, so a 50ms cap — in-process tasks are
	// sub-second, so the backoff curve is scaled to match.
	RetryBackoff time.Duration
	// Speculation enables backup attempts for straggler map tasks: once
	// at least half the map tasks have committed, any task still running
	// after speculationMultiple times the median committed duration gets
	// one speculative re-execution racing the original; the first
	// attempt to commit wins (a per-task CAS) and the loser's output is
	// dropped unpublished. Requires Map to be deterministic over its
	// segment (all in-tree engines are) for the winner's identity not to
	// matter.
	Speculation bool
	// Faults injects deterministic seeded faults for chaos testing — the
	// one place a fault is armed (faultinject.go): at task boundaries in
	// process and, under RemoteMap, on the coordinator's connections and
	// inside the worker attempts it ships them to. nil (the default)
	// injects nothing and costs one nil check per boundary.
	Faults *FaultPlan

	// RemoteMap, when set, executes every map attempt's body out of
	// process through the given RemoteMapper (remote.go) while the
	// local task lifecycle — retries, speculation, first-finisher-wins
	// commit — and the whole reduce stay in charge here. Not for a
	// map-only job (see validateRemote).
	RemoteMap RemoteMapper

	// Trace, when set, emits structured spans for the job and every task
	// attempt, commit, spill-run decode, grouping pass and reduce loop to
	// the trace's sink (see internal/obs). nil (the default) costs one nil
	// check per span site. Spans are per task / per segment / per
	// partition, never per group or record.
	Trace *obs.Trace
	// Registry, when set, receives the job's typed metrics merged in
	// after the run. The engine always instruments a fresh private
	// registry per job — the legacy Metrics struct is derived from it —
	// so cross-job aggregation happens only when the caller asks.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.NumReducers <= 0 {
		c.NumReducers = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Millisecond
	}
	return c
}

// TaskMetrics records one task's cost, replayed by the cluster simulator.
// For reduce tasks, Duration counts active work (run decoding, grouping,
// reducing), not time spent waiting for map output to arrive.
type TaskMetrics struct {
	Duration   time.Duration
	InputBytes int64
	// Records counts the task's input: segment records for map tasks,
	// key groups for reduce tasks. The reduce tasks' sum is
	// Metrics.Groups.
	Records int64
	// OutBytes is, for map tasks, the wire bytes destined to each
	// reducer — the encoded segment sizes actually shipped; for reduce
	// tasks it is nil. Its sum
	// is Metrics.ShuffleBytes; the cluster simulator charges transfer
	// time against it.
	OutBytes []int64
}

// Registry instrument names the engine populates. The engine
// observes into a fresh per-job obs.Registry at the instrumentation
// sites; Metrics is derived from it after the run, and the whole
// registry merges into Config.Registry when set.
const (
	MetricMapAttempts    = "map_attempts"
	MetricReduceAttempts = "reduce_attempts"
	MetricTaskRetries    = "task_retries"
	MetricSpecTasks      = "speculative_tasks"
	MetricSpecWins       = "speculative_wins"
	MetricShuffleBytes   = "shuffle_bytes"
	MetricShuffleLogical = "shuffle_logical_bytes"
	MetricShuffleRecords = "shuffle_records"
	MetricInputBytes     = "input_bytes"
	MetricInputRecords   = "input_records"
	MetricGroups         = "groups"
	MetricMapTaskNS      = "map_task_ns"    // histogram: committed map attempt durations
	MetricReduceTaskNS   = "reduce_task_ns" // histogram: reduce attempt durations
	MetricRunBytes       = "run_bytes"      // histogram: committed spill-run wire sizes
	MetricGroupValues    = "group_values"   // histogram: records per reduced key group
)

// Metrics aggregates a job run. It is a derived view over the job's obs.Registry (see the Metric* names); the
// struct is kept because the simulator, benchmarks, and tests consume
// it as a typed snapshot.
type Metrics struct {
	InputBytes   int64
	InputRecords int64
	// ShuffleBytes counts the bytes actually crossing the map→reduce
	// boundary: the sum of encoded segment sizes. Derived from encoder
	// output, never estimated.
	ShuffleBytes int64
	// ShuffleLogicalBytes is the same traffic in the legacy per-record
	// framing (length-prefixed key and value plus the ordering pair) — the
	// quantity a stock Hadoop shuffle would move, and the baseline the
	// wire experiment's reduction ratios divide by.
	ShuffleLogicalBytes int64
	ShuffleRecords      int64
	MapWall             time.Duration
	ReduceWall          time.Duration
	TotalWall           time.Duration
	MapCPU              time.Duration // summed task durations
	ReduceCPU           time.Duration
	MapTasks            []TaskMetrics
	ReduceTasks         []TaskMetrics
	Groups              int64

	// MapAttempts counts map attempts, retries and backups included: on
	// a clean run without speculation it is the map task count. The
	// other task-lifecycle counts are in the registry only.
	MapAttempts int64
}

// kvRec is a shuffled record inside the engine.
type kvRec struct {
	key      string
	mapperID int
	recordID int64
	value    []byte
}

// wireSize is the record's logical cost: the framing a Hadoop
// intermediate file would use (length-prefixed key and value plus the
// ordering pair as varints). Since the segment codec (segcodec.go) this
// is no longer what ships — it defines Metrics.ShuffleLogicalBytes, the
// baseline the wire experiment compares against. Computed
// arithmetically (pinned against wire.Encoder output by
// TestWireSizeMatchesEncoder) — this runs once per emitted record, so it
// must not touch an encoder.
func (r *kvRec) wireSize() int64 {
	return int64(wire.UvarintLen(uint64(len(r.key))) +
		wire.UvarintLen(uint64(r.mapperID)) +
		wire.UvarintLen(uint64(r.recordID)) +
		wire.UvarintLen(uint64(len(r.value))) +
		len(r.key) + len(r.value))
}

// Job is one configured MapReduce execution. Its shape is whether it has
// a Reduce. With one, map output is partitioned, shuffled and grouped
// by key. Without one the job is map-only: a map task's
// output is the (key, value) pairs it emitted, in emit order, and
// committing the task hands them to Output — the same attempts, retries,
// speculation and commit CAS, with nothing in between to cross.
type Job struct {
	Name   string
	Map    MapFunc
	Reduce ReduceFunc
	// Output receives each map task's committed pairs when Reduce is nil:
	// once per task, only ever the winning attempt's, on that attempt's
	// goroutine (tasks commit concurrently). The sequence, keys and values
	// included, is valid for the duration of the call: what outlives it is
	// copied. An error aborts the job. nil drops the output.
	Output func(task int, pairs iter.Seq2[string, []byte]) error
	Conf   Config
}

// Run executes the job over the input segments and returns its metrics.
func (j *Job) Run(segments []*Segment) (*Metrics, error) {
	return j.RunContext(context.Background(), segments)
}

// RunContext is Run with cancellation: when ctx is cancelled, the
// engine stops launching attempts, wakes any attempt sleeping in a
// backoff or injected delay, drains its task goroutines, and returns
// ctx's error. A user Map or Reduce call already in flight runs to
// completion first (the engine cannot preempt user code).
func (j *Job) RunContext(ctx context.Context, segments []*Segment) (*Metrics, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return j.runStreaming(ctx, j.Conf.withDefaults(), segments)
}

// partition assigns a key to a reducer by FNV-1a hash, Hadoop's default
// strategy modulo the hash function. The hash is inlined over the string
// — no hasher allocation, no []byte copy of the key — and matches
// hash/fnv bit for bit (pinned by TestPartitionMatchesFNV).
func partition(key string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(n))
}
