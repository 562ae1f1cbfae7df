package cluster

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Payload codecs for the frame protocol, built on the wire primitives
// the segment codec already uses. Every decoder is total: corrupt input
// returns an error wrapping ErrFrame, never a panic — the same contract
// decodeSegment holds, extended across the socket. Each decoder ends in
// decoded, the one tail that turns a short or a long payload into that
// error.

// decoded is every payload decoder's tail: v, or — when d failed, or
// bytes are left after the payload — an ErrFrame error naming what.
func decoded[T any](v T, d *wire.Decoder, what string) (T, error) {
	var zero T
	if err := d.Err(); err != nil {
		return zero, fmt.Errorf("%w: truncated %s: %w", ErrFrame, what, err)
	}
	if n := d.Remaining(); n != 0 {
		return zero, fmt.Errorf("%w: %d trailing bytes after %s", ErrFrame, n, what)
	}
	return v, nil
}

// JobSpec identifies, to a worker, how to build the map side of a job:
// the registered query plus the one engine knob that changes map
// output, the reducer count.
// (Whether a worker regroups a segment is not a knob: its cached copy
// keeps the grouped form, as an in-process job's segment does.)
// All fields are scalar so specs are comparable — workers cache one
// built mapper per distinct spec.
type JobSpec struct {
	// Query is the job registry key (RegisterJob), e.g. "G1".
	Query string
	// NumReducers must match the coordinator's mapreduce.Config: it
	// shapes the partitioning of every run the worker ships.
	NumReducers int
}

func appendJobSpec(e *wire.Encoder, s JobSpec) {
	e.String(s.Query)
	e.Uvarint(uint64(s.NumReducers))
}

func decodeJobSpec(d *wire.Decoder) JobSpec {
	return JobSpec{
		Query:       d.String(),
		NumReducers: int(d.Uvarint()),
	}
}

// encodeHello builds the hello payload: magic then protocol version.
func encodeHello() []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(helloMagic)
	e.Uvarint(ProtocolVersion)
	return e.Bytes()
}

// decodeHello validates a hello payload. Bad magic and other versions
// are errors (never panics); the fuzz corpus pins both classes. The
// version is checked before the tail, so a later version that extends
// the hello is still told it speaks the wrong version.
func decodeHello(payload []byte) error {
	d := wire.NewDecoder(payload)
	magic, version := d.Uvarint(), d.Uvarint()
	if d.Err() == nil && magic == helloMagic && version != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version %d not supported (want %d)", version, ProtocolVersion)
	}
	if _, err := decoded(magic, d, "hello"); err != nil {
		return err
	}
	if magic != helloMagic {
		return fmt.Errorf("%w: bad hello magic 0x%x", ErrFrame, magic)
	}
	return nil
}

// assignment is one map attempt shipped to a worker.
type assignment struct {
	spec    JobSpec
	task    int
	attempt int
	// faults are what the job's plan armed for the attempt, fired by the
	// worker at their points (appendFaults).
	faults mapreduce.AttemptFaults
	// segDigest content-addresses the input segment (wireDigest), both
	// lanes; seg is nil when the coordinator believes the worker already
	// caches the digest.
	segDigest mapreduce.Digest
	segID     int
	seg       *mapreduce.Segment
}

// maxSegmentRecords caps a decoded assignment's record count; segments
// in this repo are thousands of records, so the cap only rejects
// forged counts before allocation.
const maxSegmentRecords = 1 << 26

// maxFaultDelay caps a decoded fault's stall: plans delay by
// milliseconds, so anything near a second is forged.
const maxFaultDelay = time.Second

// appendFaults writes an attempt's armed faults — the assignment's one
// fault field: count, then point, kind, ordinal and delay per fault.
func appendFaults(e *wire.Encoder, fs mapreduce.AttemptFaults) {
	e.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.Byte(byte(f.Point))
		e.Byte(byte(f.Kind))
		e.Varint(f.At)
		e.Varint(int64(f.Delay))
	}
}

// decodeFaults rejects a fault at an undeclared point or of an
// undeclared kind, a negative ordinal, or a delay no plan arms; a short
// payload is left to the caller's tail.
func decodeFaults(d *wire.Decoder) (mapreduce.AttemptFaults, error) {
	var fs mapreduce.AttemptFaults
	for n := d.Length(len(mapreduce.AllFaultPoints())); n > 0 && d.Err() == nil; n-- {
		f := mapreduce.Fault{Point: mapreduce.FaultPoint(d.Byte()), Kind: mapreduce.FaultKind(d.Byte()),
			At: d.Varint(), Delay: time.Duration(d.Varint())}
		if d.Err() != nil {
			break
		}
		if !f.Point.Valid() || !f.Kind.Valid() || f.At < 0 || f.Delay < 0 || f.Delay > maxFaultDelay {
			return nil, fmt.Errorf("%w: fault %+v outside the plan's range", ErrFrame, f)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

func encodeAssign(a *assignment) []byte {
	e := wire.NewEncoder(1 << 16)
	appendJobSpec(e, a.spec)
	e.Uvarint(uint64(a.task))
	e.Uvarint(uint64(a.attempt))
	appendFaults(e, a.faults)
	e.Uvarint(uint64(a.segID))
	e.Uint64(a.segDigest[0])
	e.Uint64(a.segDigest[1])
	if a.seg == nil {
		e.Bool(false) // digest-only: the worker resolves it from cache
		return e.Bytes()
	}
	e.Bool(true)
	e.Uvarint(uint64(len(a.seg.Records)))
	for _, r := range a.seg.Records {
		e.BytesField(r)
	}
	runtime.KeepAlive(a.seg)
	return e.Bytes()
}

func decodeAssign(payload []byte) (*assignment, error) {
	d := wire.NewDecoder(payload)
	a := &assignment{
		spec:    decodeJobSpec(d),
		task:    int(d.Uvarint()),
		attempt: int(d.Uvarint()),
	}
	var err error
	if a.faults, err = decodeFaults(d); err != nil {
		return nil, err
	}
	a.segID = int(d.Uvarint())
	a.segDigest = mapreduce.Digest{d.Uint64(), d.Uint64()}
	if !d.Bool() {
		return decoded(a, d, "assignment") // digest-only: no payload follows
	}
	n := d.Length(maxSegmentRecords)
	if d.Err() != nil {
		return decoded(a, d, "assignment")
	}
	recs := make([][]byte, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		// Copy out of the frame buffer: segments outlive the frame.
		recs[i] = append([]byte(nil), d.BytesField()...)
	}
	a.seg = &mapreduce.Segment{ID: a.segID, Records: recs}
	return decoded(a, d, "assignment")
}

func encodeRun(r mapreduce.Run) []byte {
	e := wire.NewEncoder(len(r.Seg) + 16)
	e.Uvarint(uint64(r.Task))
	e.Uvarint(uint64(r.Attempt))
	e.Uvarint(uint64(r.Part))
	e.BytesField(r.Seg)
	return e.Bytes()
}

func decodeRun(payload []byte) (mapreduce.Run, error) {
	d := wire.NewDecoder(payload)
	r := mapreduce.Run{
		Task:    int(d.Uvarint()),
		Attempt: int(d.Uvarint()),
		Part:    int(d.Uvarint()),
	}
	r.Seg = append([]byte(nil), d.BytesField()...) // outlives the frame buffer
	return decoded(r, d, "run")
}

// mapDone is the attempt-closing metrics message, the wire form of the
// non-run fields of mapreduce.MapOutput.
type mapDone struct {
	emitted  int64
	duration time.Duration
	// procs is the worker's GOMAXPROCS — the benchmark methodology
	// records it per worker so oversubscribed hosts are visible.
	procs   int
	logical int64
}

func encodeMapDone(m *mapDone) []byte {
	e := wire.NewEncoder(32)
	e.Varint(m.emitted)
	e.Varint(int64(m.duration))
	e.Varint(int64(m.procs))
	e.Varint(m.logical)
	return e.Bytes()
}

func decodeMapDone(payload []byte) (*mapDone, error) {
	d := wire.NewDecoder(payload)
	m := &mapDone{
		emitted:  d.Varint(),
		duration: time.Duration(d.Varint()),
		procs:    int(d.Varint()),
		logical:  d.Varint(),
	}
	return decoded(m, d, "map-done")
}

// maxSpans and maxSpanKVs cap a decoded spans frame.
const (
	maxSpans   = 1 << 20
	maxSpanKVs = 1 << 8
)

// encodeSpans writes each span's attributes and tags by key byte.
func encodeSpans(spans []*obs.Span) []byte {
	e := wire.NewEncoder(len(spans) * 64)
	e.Uvarint(uint64(len(spans)))
	for _, sp := range spans {
		e.String(sp.Kind)
		e.String(sp.Name)
		e.Varint(sp.Start)
		e.Varint(sp.End)
		na, nt := 0, 0
		for range sp.Attrs() {
			na++
		}
		for range sp.Tags() {
			nt++
		}
		e.Uvarint(uint64(na))
		for k, v := range sp.Attrs() {
			e.Byte(byte(k))
			e.Varint(v)
		}
		e.Uvarint(uint64(nt))
		for k, v := range sp.Tags() {
			e.Byte(byte(k))
			e.String(v)
		}
	}
	return e.Bytes()
}

func decodeSpans(payload []byte) ([]*obs.Span, error) {
	d := wire.NewDecoder(payload)
	n := d.Length(maxSpans)
	if d.Err() != nil {
		return decoded[[]*obs.Span](nil, d, "spans")
	}
	spans := make([]*obs.Span, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		sp := &obs.Span{
			Kind:  d.String(),
			Name:  d.String(),
			Start: d.Varint(),
			End:   d.Varint(),
		}
		for j := d.Length(maxSpanKVs); j > 0 && d.Err() == nil; j-- {
			k, v := obs.AttrKey(d.Byte()), d.Varint()
			if !k.Valid() {
				return nil, fmt.Errorf("%w: span attribute key %d", ErrFrame, k)
			}
			sp.SetAttr(k, v)
		}
		for j := d.Length(maxSpanKVs); j > 0 && d.Err() == nil; j-- {
			k, v := obs.TagKey(d.Byte()), d.String()
			if !k.Valid() {
				return nil, fmt.Errorf("%w: span tag key %d", ErrFrame, k)
			}
			sp.SetTag(k, v)
		}
		spans = append(spans, sp)
	}
	return decoded(spans, d, "spans")
}

func encodeError(msg string) []byte {
	e := wire.NewEncoder(len(msg) + 4)
	e.String(msg)
	return e.Bytes()
}

func decodeError(payload []byte) (string, error) {
	d := wire.NewDecoder(payload)
	return decoded(d.String(), d, "error")
}
