// Package obs is the engine's observability layer: structured job
// tracing, a typed metrics registry with invariant self-checks, and a
// trace verifier.
//
// The paper's claims are all measured quantities — CPU seconds, shuffle
// bytes, end-to-end latency — so the engine that reproduces them must be
// able to show its work. Every job run can emit a trace: a flat list of
// spans (one per task attempt, spill encode, segment decode, grouping
// pass, reduce loop, …) all parented to a per-job root span, written
// as JSONL through a pluggable Sink. A completed trace is a checkable
// artifact: Verifier replays it against the engine's algebraic
// invariants (wire bytes bounded by logical bytes, every committed run
// merged exactly once, speculation losers never commit), turning "the
// run looked right" into "the run provably shuffled right" — the
// Monoidify/Homomorphism-Calculus discipline applied to the runtime
// rather than the UDA.
//
// Tracing is strictly optional and nil-safe: a nil *Trace (the default)
// makes every span call a no-op nil-pointer check, so the hot paths pay
// nothing when observability is off. Span granularity is per task /
// segment / chunk / partition — never per group or record — keeping the
// traced overhead within a few percent (`obs.trace_overhead_pct` in `go
// run ./benchmark -trace 1`, on every workload).
package obs

import (
	"bufio"
	"io"
	"iter"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds, the trace taxonomy (see DESIGN.md "Observability").
const (
	// KindJob is the per-job root span; every other span of the run is
	// parented to it.
	KindJob = "job"
	// KindMapAttempt covers one map task attempt: user map, partition,
	// segment encode. Attrs: task, attempt, records; tags: outcome
	// (ok|error), speculative.
	KindMapAttempt = "map_attempt"
	// KindReduceAttempt covers one reduce task attempt: the grouping
	// plus the user reduce calls. Attrs: task, attempt, groups.
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
	// KindMerge covers one reduce attempt's grouping pass: its runs read
	// in mapper order and laid out by key. Attrs: part, runs.
	KindMerge = "merge"
	// KindMapParse covers the groupby/parse pass of one map chunk.
	// Attrs: task, records, groups, batch_records.
	KindMapParse = "map_parse"
	// KindMapExec covers the symbolic-execution pass of one map chunk.
	// Attrs: task, groups, batch_records.
	KindMapExec = "map_exec"
	// KindCompose covers one reduce attempt's reduce calls after its
	// grouping pass: in a SYMPLE job, each group's summaries folded in
	// order onto the initial state. Attrs: part, groups and values
	// reduced; tags: outcome (error only).
	KindCompose = "compose"
	// KindQueue covers one serve job's admission wait, from accepted
	// submit to dispatch. Parented to the serve job root; tags: tenant.
	KindQueue = "queue_wait"
	// KindFold covers one serve fold: decoding cached or fresh summary
	// bundles and streaming them through the composer. Attrs: segments,
	// groups.
	KindFold = "fold"
)

// AttrKey names an integer attribute of a span, TagKey a string tag:
// the fixed vocabulary the kinds above document. Keys travel in a
// cluster worker's spans frame, so each has a fixed number: a deleted
// key's number stays reserved (no name) and is never reused. Name order
// is the order spans list them in, whatever the numbers.
type (
	AttrKey uint8
	TagKey  uint8
)

// Attribute keys shared by emitters and the Verifier.
const (
	AttrAttempt AttrKey = 1
	// AttrBatchRecords is the number of events a map chunk kept after
	// grouping; its parse and exec spans carry the same value.
	AttrBatchRecords AttrKey = 2
	AttrBytes        AttrKey = 3
	// AttrSegments, AttrCachedSegments, AttrPrefixSegments and
	// AttrMappedSegments carry a serve job's fold provenance on its root
	// span: how many input segments the result folded, how many of those
	// came from the summary cache (of which how many as part of a cached
	// prefix: resumed from, never folded), and how many were mapped fresh.
	// The serve-cache invariant joins them against the job's subtree.
	AttrCachedSegments AttrKey = 4
	AttrGroups         AttrKey = 5
	AttrLogicalBytes   AttrKey = 6
	AttrMappedSegments AttrKey = 7
	AttrParallelism    AttrKey = 8
	AttrPart           AttrKey = 9
	AttrPrefixSegments AttrKey = 10
	AttrRecords        AttrKey = 11
	AttrRuns           AttrKey = 12
	AttrSegments       AttrKey = 13
	AttrTask           AttrKey = 14
	AttrValues         AttrKey = 15
	AttrWireBytes      AttrKey = 16
)

// Tag keys: how an attempt, job or wait ended (ok, error, cancelled, a
// job's error message); a commit's phase (map, reduce); and 1 on a span
// a cluster worker shipped, a simulated one, a backup map attempt.
const (
	TagOutcome     TagKey = 1
	TagPhase       TagKey = 2
	TagRemote      TagKey = 3
	TagSim         TagKey = 4
	TagSpeculative TagKey = 5
)

var (
	attrNames = [...]string{AttrAttempt: "attempt", AttrBatchRecords: "batch_records",
		AttrBytes: "bytes", AttrCachedSegments: "cached_segments", AttrGroups: "groups",
		AttrLogicalBytes: "logical_bytes", AttrMappedSegments: "mapped_segments",
		AttrParallelism: "parallelism", AttrPart: "part", AttrPrefixSegments: "prefix_segments",
		AttrRecords: "records", AttrRuns: "runs", AttrSegments: "segments", AttrTask: "task",
		AttrValues: "values", AttrWireBytes: "wire_bytes"}
	tagNames = [...]string{TagOutcome: "outcome", TagPhase: "phase", TagRemote: "remote",
		TagSim: "sim", TagSpeculative: "speculative"}

	// attrOrder and tagOrder list the declared keys in name order, built
	// once: the order Attrs and Tags yield.
	attrOrder = byName[AttrKey](attrNames[:])
	tagOrder  = byName[TagKey](tagNames[:])
)

const (
	numAttrKeys = len(attrNames)
	numTagKeys  = len(tagNames)
)

// byName lists the numbers of names that have one, in name order.
func byName[K ~uint8](names []string) []K {
	var ks []K
	for k, n := range names {
		if n != "" {
			ks = append(ks, K(k))
		}
	}
	slices.SortFunc(ks, func(a, b K) int { return strings.Compare(names[a], names[b]) })
	return ks
}

func (k AttrKey) String() string { return attrNames[k] }
func (k TagKey) String() string  { return tagNames[k] }

// Valid reports whether k is a declared key, for decoders of spans from
// outside the process.
func (k AttrKey) Valid() bool { return int(k) < numAttrKeys && attrNames[k] != "" }
func (k TagKey) Valid() bool  { return int(k) < numTagKeys && tagNames[k] != "" }

// Span is one traced interval (or instant event, when End == Start).
// Times are Unix nanoseconds; simulated traces (dcsim) use an epoch of 0
// and nanoseconds of simulated time instead.
type Span struct {
	ID     int64
	Parent int64
	Kind   string
	Name   string
	Start  int64
	End    int64
	// Attributes and tags sit in fixed arrays indexed by key, so setting
	// one is a store: has marks the attributes set, and a tag is set when
	// it is not empty.
	attrs [numAttrKeys]int64
	has   uint32
	tags  [numTagKeys]string
}

var _ [32 - numAttrKeys]struct{} // has holds a bit per attribute key

// Duration returns the span's length.
func (s *Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// Attr returns the attribute k, or 0.
func (s *Span) Attr(k AttrKey) int64 { return s.attrs[k] }

// Lookup returns the attribute k and whether the span carries it.
func (s *Span) Lookup(k AttrKey) (int64, bool) { return s.attrs[k], s.has&(1<<k) != 0 }

// SetAttr sets the attribute k.
func (s *Span) SetAttr(k AttrKey, v int64) { s.attrs[k], s.has = v, s.has|1<<k }

// Tag returns the tag k, or "".
func (s *Span) Tag(k TagKey) string { return s.tags[k] }

// SetTag sets the tag k to a non-empty value.
func (s *Span) SetTag(k TagKey, v string) { s.tags[k] = v }

// Attrs yields the span's attributes in name order.
func (s *Span) Attrs() iter.Seq2[AttrKey, int64] {
	return func(yield func(AttrKey, int64) bool) {
		for _, k := range attrOrder {
			if s.has&(1<<k) != 0 && !yield(k, s.attrs[k]) {
				return
			}
		}
	}
}

// Tags yields the span's tags in name order.
func (s *Span) Tags() iter.Seq2[TagKey, string] {
	return func(yield func(TagKey, string) bool) {
		for _, k := range tagOrder {
			if s.tags[k] != "" && !yield(k, s.tags[k]) {
				return
			}
		}
	}
}

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
// most recent StartJob's span ID — for emitters that build spans
// manually (a cluster worker's shipped spans).
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

// ID returns the span's ID (0 on nil).
func (s *ActiveSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.sp.ID
}

// Attr sets an integer attribute, returning the span for chaining.
func (s *ActiveSpan) Attr(k AttrKey, v int64) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.sp.SetAttr(k, v)
	return s
}

// Tag sets a string tag, returning the span for chaining.
func (s *ActiveSpan) Tag(k TagKey, v string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.sp.SetTag(k, v)
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
	b = appendObject(b, "attrs", sp.Attrs(), func(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) })
	b = appendObject(b, "tags", sp.Tags(), appendJSONString)
	b = append(b, '}', '\n')
	return b
}

// jsonHex holds the digits for \u00XX control-character escapes.
const jsonHex = "0123456789abcdef"

// appendJSONString renders s as a quoted JSON string. Kinds and attr
// keys are engine identifiers, but span names and tags carry job names
// and error messages which can hold arbitrary bytes, so quotes,
// backslashes, and control characters are escaped; everything else
// passes through raw.
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

// appendObject renders kvs — a span's attributes or tags, in name order
// — as the JSON object field name; none, no field.
func appendObject[K interface{ String() string }, V any](b []byte, name string, kvs iter.Seq2[K, V], val func([]byte, V) []byte) []byte {
	n := 0
	for k, v := range kvs {
		if n++; n == 1 {
			b = append(append(append(b, `,"`...), name...), `":{`...)
		} else {
			b = append(b, ',')
		}
		b = val(append(appendJSONString(b, k.String()), ':'), v)
	}
	if n > 0 {
		b = append(b, '}')
	}
	return b
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
