// Package obs is the engine's observability layer: structured job
// tracing, a typed metrics registry with invariant self-checks, and a
// trace verifier.
//
// The paper's claims are all measured quantities — CPU seconds, shuffle
// bytes, end-to-end latency — so the engine that reproduces them must be
// able to show its work. Every job run can emit a trace: a flat list of
// spans (one per task attempt, spill encode, segment decode, merge,
// summary composition, …) all parented to a per-job root span, written
// as JSONL through a pluggable Sink. A completed trace is a checkable
// artifact: Verifier replays it against the engine's algebraic
// invariants (wire bytes bounded by logical bytes, every committed run
// merged exactly once, compose count = summaries−1 per group,
// speculation losers never commit), turning "the run looked right" into
// "the run provably composed right" — the Monoidify/Homomorphism-
// Calculus discipline applied to the runtime rather than the UDA.
//
// Tracing is strictly optional and nil-safe: a nil *Trace (the default)
// makes every span call a no-op nil-pointer check, so the hot paths pay
// nothing when observability is off. Span granularity is per task /
// per segment / per group — never per record — keeping the traced
// overhead within a few percent (`obs.trace_overhead_pct` in `go run
// ./benchmark -trace 1`, on every workload).
package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, the trace taxonomy (see DESIGN.md "Observability").
const (
	// KindJob is the per-job root span; every other span of the run is
	// parented to it.
	KindJob = "job"
	// KindMapAttempt covers one map task attempt: user map, spill sort,
	// segment encode. Attrs: task, attempt, records, out_bytes,
	// logical_bytes; tags: outcome (ok|error), speculative.
	KindMapAttempt = "map_attempt"
	// KindReduceAttempt covers one reduce task attempt: the k-way merge
	// plus the user reduce calls. Attrs: part, attempt, groups.
	KindReduceAttempt = "reduce_attempt"
	// KindCommit is an instant event: one attempt won its task's commit.
	// Attrs: task, attempt. At most one per task — the single-commit
	// invariant.
	KindCommit = "commit"
	// KindRunCommit is an instant event: one spill run became visible to
	// its reducer. Attrs: task, attempt, part, bytes.
	KindRunCommit = "run_commit"
	// KindSegDecode covers decoding one shuffle segment at the reducer —
	// and doubles as the run's consumption record for the merged-once
	// invariant. Attrs: task, attempt, part, bytes.
	KindSegDecode = "seg_decode"
	// KindSpillEncode covers encoding one attempt's partition segments.
	// Attrs: task, attempt, bytes.
	KindSpillEncode = "spill_encode"
	// KindMerge covers one pre-merge fold of pending runs at an idle
	// reducer. Attrs: part, runs.
	KindMerge = "merge"
	// KindMapParse covers the groupby/parse pass of one map chunk.
	// Attrs: task, records, groups, batch_records.
	KindMapParse = "map_parse"
	// KindMapExec covers the symbolic-execution pass of one map chunk.
	// Attrs: task, groups, batch_records.
	KindMapExec = "map_exec"
	// KindCompose covers the reduce-side fold of one group's summaries.
	// Name: group key ("owner/"+key when a w2w partition owner ran it).
	// Attrs: summaries, composes, applies —
	// the compose-count invariant requires composes+applies = summaries.
	KindCompose = "compose"
	// KindCombine covers a mapper-side combiner pre-composing one
	// group's summary list. Attrs: summaries, composes (= summaries−1).
	KindCombine = "combine"
	// KindReduceGroup covers one concrete reduce group (baseline
	// engine). Name: group key. Attrs: values.
	KindReduceGroup = "reduce_group"
	// KindPartOwner is an instant event recording which worker ran the
	// worker-resident reduce for a partition (cluster w2w topology).
	// Attrs: part, worker. The owner-decode invariant joins it against
	// seg_decode spans carrying a worker attr.
	KindPartOwner = "part_owner"
	// KindQueue covers one serve job's admission wait, from accepted
	// submit to dispatch. Parented to the serve job root; tags: tenant.
	KindQueue = "queue_wait"
	// KindFold covers one serve fold: decoding cached or fresh summary
	// bundles and streaming them through the composer. Attrs: segments,
	// groups.
	KindFold = "fold"
)

// Common attribute keys shared by emitters and the Verifier.
const (
	AttrTask         = "task"
	AttrAttempt      = "attempt"
	AttrPart         = "part"
	AttrBytes        = "bytes"
	AttrRecords      = "records"
	AttrSummaries    = "summaries"
	AttrComposes     = "composes"
	AttrApplies      = "applies"
	AttrValues       = "values"
	AttrGroups       = "groups"
	AttrRuns         = "runs"
	AttrParallelism  = "parallelism"
	AttrWireBytes    = "wire_bytes"
	AttrLogicalBytes = "logical_bytes"
	AttrOutBytes     = "out_bytes"
	// AttrWorker identifies the cluster worker a span executed on
	// (w2w reduce placement); in-process spans don't set it.
	AttrWorker = "worker"
	// AttrBatchRecords is the number of events a map chunk kept after
	// grouping; its parse and exec spans carry the same value.
	AttrBatchRecords = "batch_records"
	// AttrSegments, AttrCachedSegments, AttrPrefixSegments and
	// AttrMappedSegments carry a serve job's fold provenance on its root
	// span: how many input segments the result folded, how many of those
	// came from the summary cache (of which how many as part of a cached
	// prefix: resumed from, never folded), and how many were mapped fresh.
	// The serve-cache invariant joins them against the job's subtree.
	AttrSegments       = "segments"
	AttrCachedSegments = "cached_segments"
	AttrPrefixSegments = "prefix_segments"
	AttrMappedSegments = "mapped_segments"
)

// Span is one traced interval (or instant event, when End == Start).
// Times are Unix nanoseconds; simulated traces (dcsim) use an epoch of 0
// and nanoseconds of simulated time instead.
type Span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Kind   string            `json:"kind"`
	Name   string            `json:"name,omitempty"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]int64  `json:"attrs,omitempty"`
	Tags   map[string]string `json:"tags,omitempty"`
}

// Duration returns the span's length.
func (s *Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Attr returns the named attribute, or 0.
func (s *Span) Attr(k string) int64 { return s.Attrs[k] }

// Sink receives completed spans. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(*Span)
}

// Trace issues span IDs and routes completed spans to its sink. All
// methods are safe on a nil receiver (no-ops), so engine code can thread
// an optional *Trace without guarding every call site.
//
// One job runs at a time per trace: StartJob sets the implicit parent
// that Start attaches to. Sequential jobs on one trace are fine (the
// Verifier groups spans per job root); concurrent jobs each need their
// own Fork of a shared trace.
type Trace struct {
	sink Sink
	// root, when non-nil, is the fork's ID authority: every fork of a
	// trace allocates span IDs from the same counter, so concurrent
	// forks emitting into one sink never collide.
	root *Trace
	// forkParent is the job span the forking trace was running when the
	// fork was taken; StartJob on the fork parents its root there, so a
	// sub-job (a serve job's engine run) nests under its umbrella span.
	forkParent int64
	nextID     atomic.Int64
	jobID      atomic.Int64
}

// NewTrace returns a trace emitting to sink.
func NewTrace(sink Sink) *Trace {
	return &Trace{sink: sink}
}

// Fork returns a trace sharing t's sink and span-ID space but with its
// own implicit job slot: each fork runs one job at a time, and any
// number of forks run concurrently into the same sink. A job started on
// the fork is parented to t's job at fork time (0 — a top-level root —
// when t has none), so sub-jobs nest under the job that spawned them.
func (t *Trace) Fork() *Trace {
	if t == nil {
		return nil
	}
	root := t.root
	if root == nil {
		root = t
	}
	return &Trace{sink: t.sink, root: root, forkParent: t.jobID.Load()}
}

// allocID draws a span ID from the trace's ID authority.
func (t *Trace) allocID() int64 {
	if t.root != nil {
		return t.root.nextID.Add(1)
	}
	return t.nextID.Add(1)
}

// NewID issues a fresh span ID, for emitters that build spans manually
// (the cluster simulator's replay).
func (t *Trace) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.allocID()
}

// CurrentJob returns the implicit parent ID Start would attach to — the
// most recent StartJob's span ID. It outlives that span's End, so
// post-run emitters (the compose overflow aggregate) can still parent to
// the job they observed.
func (t *Trace) CurrentJob() int64 {
	if t == nil {
		return 0
	}
	return t.jobID.Load()
}

// EmitRaw sends a manually built span (assigning an ID if unset). Used
// by replay emitters that set Start/End to synthetic times.
func (t *Trace) EmitRaw(sp *Span) {
	if t == nil {
		return
	}
	if sp.ID == 0 {
		sp.ID = t.allocID()
	}
	t.sink.Emit(sp)
}

// now is the current time in Unix nanoseconds: the wall time the process
// started at plus the monotonic clock since, one clock read where
// time.Now takes two.
func now() int64 { return epoch.UnixNano() + int64(time.Since(epoch)) }

var epoch = time.Now()

// ActiveSpan is an in-flight span. Attr/Tag/End are safe on a nil
// receiver; a span is owned by one goroutine until End.
type ActiveSpan struct {
	t  *Trace
	sp Span
}

// StartJob opens the per-job root span and makes it the implicit parent
// of subsequent Start calls on this trace.
func (t *Trace) StartJob(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	s := &ActiveSpan{t: t, sp: Span{
		ID:     t.allocID(),
		Parent: t.forkParent,
		Kind:   KindJob,
		Name:   name,
		Start:  now(),
	}}
	t.jobID.Store(s.sp.ID)
	return s
}

// Start opens a span parented to the current job span.
func (t *Trace) Start(kind, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, sp: Span{
		ID:     t.allocID(),
		Parent: t.jobID.Load(),
		Kind:   kind,
		Name:   name,
		Start:  now(),
	}}
}

// Event emits an instant span (End == Start) parented to the current
// job. The returned span has already been emitted once End-ed; Event
// ends it itself after applying attrs via the callback-free fluent
// chain, so callers use Start(...).Attr(...).End() when they need attrs:
// Event is the zero-attr shorthand.
func (t *Trace) Event(kind, name string) {
	t.Start(kind, name).End()
}

// ID returns the span's ID (0 on nil).
func (s *ActiveSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.sp.ID
}

// Attr sets an integer attribute, returning the span for chaining.
func (s *ActiveSpan) Attr(k string, v int64) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.sp.Attrs == nil {
		s.sp.Attrs = make(map[string]int64, 4)
	}
	s.sp.Attrs[k] = v
	return s
}

// Tag sets a string tag, returning the span for chaining.
func (s *ActiveSpan) Tag(k, v string) *ActiveSpan {
	if s == nil {
		return nil
	}
	if s.sp.Tags == nil {
		s.sp.Tags = make(map[string]string, 2)
	}
	s.sp.Tags[k] = v
	return s
}

// End closes the span and emits it to the sink. An instant event is a
// span ended immediately; End forces End >= Start so zero-duration
// events never trip the clock invariant on coarse clocks.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.sp.End = now()
	if s.sp.End < s.sp.Start {
		s.sp.End = s.sp.Start
	}
	s.t.sink.Emit(&s.sp)
}

// MemSink collects spans in memory, for the Verifier and tests.
type MemSink struct {
	mu    sync.Mutex
	spans []*Span
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink { return &MemSink{} }

// Emit implements Sink.
func (m *MemSink) Emit(sp *Span) {
	m.mu.Lock()
	m.spans = append(m.spans, sp)
	m.mu.Unlock()
}

// Spans returns the collected spans in emission order.
func (m *MemSink) Spans() []*Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Span(nil), m.spans...)
}

// Reset drops all collected spans.
func (m *MemSink) Reset() {
	m.mu.Lock()
	m.spans = m.spans[:0]
	m.mu.Unlock()
}

// JSONLSink writes one JSON object per span to a buffered writer. The
// encoder is hand-rolled (fixed field order, integer attrs only) so a
// traced hot loop pays string formatting, not reflection.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // underlying file, if owned
	buf []byte
}

// NewJSONLSink wraps w. Close flushes; it closes w too when w is an
// io.Closer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(sp *Span) {
	s.mu.Lock()
	s.buf = appendSpanJSON(s.buf[:0], sp)
	_, _ = s.w.Write(s.buf)
	s.mu.Unlock()
}

// Close flushes buffered spans (and closes the underlying writer when
// owned).
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// appendSpanJSON renders one span as a JSONL line.
func appendSpanJSON(b []byte, sp *Span) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, sp.ID, 10)
	if sp.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, sp.Parent, 10)
	}
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, sp.Kind)
	if sp.Name != "" {
		b = append(b, `,"name":`...)
		b = appendJSONString(b, sp.Name)
	}
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, sp.Start, 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, sp.End, 10)
	if len(sp.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		first := true
		for _, k := range sortedKeys(sp.Attrs) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONString(b, k)
			b = append(b, ':')
			b = strconv.AppendInt(b, sp.Attrs[k], 10)
		}
		b = append(b, '}')
	}
	if len(sp.Tags) > 0 {
		b = append(b, `,"tags":{`...)
		first := true
		for _, k := range sortedKeys(sp.Tags) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = appendJSONString(b, k)
			b = append(b, ':')
			b = appendJSONString(b, sp.Tags[k])
		}
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	return b
}

// jsonHex holds the digits for \u00XX control-character escapes.
const jsonHex = "0123456789abcdef"

// appendJSONString renders s as a quoted JSON string. Kinds and attr
// keys are engine identifiers, but span names carry group keys which can
// hold arbitrary bytes, so quotes, backslashes, and control characters
// are escaped; everything else passes through raw.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
		}
	}
	return append(b, '"')
}

// sortedKeys returns the map's keys in sorted order, for deterministic
// JSONL output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: attr maps hold a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// MultiSink fans one span out to several sinks (e.g. a JSONL file plus
// the in-memory sink the Verifier reads).
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(sp *Span) {
	for _, s := range m {
		s.Emit(sp)
	}
}
