package cluster

import (
	"fmt"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Payload codecs for the frame protocol, built on the wire primitives
// the segment codec already uses. Every decoder is total: corrupt
// input returns an error naming wire.ErrCorrupt or ErrFrame, never a
// panic — the same contract decodeSegment holds, extended across the
// socket.

// JobSpec identifies, to a worker, how to build the map side of a job:
// the registered query plus the engine knobs that change map output.
// All fields are scalar so specs are comparable — workers cache one
// built mapper per distinct spec.
type JobSpec struct {
	// Query is the job registry key (RegisterJob), e.g. "G1".
	Query string
	// NumReducers and Compress must match the coordinator's
	// mapreduce.Config: they shape the partitioning and encoding of
	// every run the worker ships.
	NumReducers int
	Compress    bool
	// Combine is the core.SympleOptions field: it shapes map output.
	// (Whether a worker groups vectorized is not a knob: it indexes its
	// cached copy of the segment at first touch, as an in-process job
	// does.)
	Combine bool
}

func appendJobSpec(e *wire.Encoder, s JobSpec) {
	e.String(s.Query)
	e.Uvarint(uint64(s.NumReducers))
	e.Bool(s.Compress)
	e.Bool(s.Combine)
}

func decodeJobSpec(d *wire.Decoder) JobSpec {
	return JobSpec{
		Query:       d.String(),
		NumReducers: int(d.Uvarint()),
		Compress:    d.Bool(),
		Combine:     d.Bool(),
	}
}

// encodeHello builds the hello payload: magic then protocol version.
func encodeHello() []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(helloMagic)
	e.Uvarint(ProtocolVersion)
	return e.Bytes()
}

// DecodeHello validates a hello payload, returning the peer's version.
// Bad magic and unsupported versions are errors (never panics); the
// fuzz corpus pins both classes.
func DecodeHello(payload []byte) (version uint64, err error) {
	d := wire.NewDecoder(payload)
	magic := d.Uvarint()
	version = d.Uvarint()
	if d.Err() != nil {
		return 0, fmt.Errorf("%w: truncated hello", ErrFrame)
	}
	if magic != helloMagic {
		return 0, fmt.Errorf("%w: bad hello magic 0x%x", ErrFrame, magic)
	}
	if version != ProtocolVersion {
		return version, fmt.Errorf("cluster: protocol version %d not supported (want %d)", version, ProtocolVersion)
	}
	if d.Remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after hello", ErrFrame, d.Remaining())
	}
	return version, nil
}

// assignment is one map attempt shipped to a worker.
type assignment struct {
	spec    JobSpec
	task    int
	attempt int
	// faults are what the job's plan armed for the attempt, fired by the
	// worker at their points (appendFaults).
	faults mapreduce.AttemptFaults
	// w2w switches the attempt to the worker-to-worker topology: the
	// worker pushes runs straight to each partition's owner and sends
	// the coordinator byte-counted receipts instead of run payloads.
	w2w    bool
	jobID  uint64
	selfID int
	// owners[p] is the worker index owning partition p; addrs[i] is
	// worker i's listen address for peer dials.
	owners []int
	addrs  []string
	// refillPart, when ≥ 0, marks a refill re-execution: re-derive and
	// re-push only that partition's run, with no receipts and no spans
	// (the original attempt already committed). -1 is a normal attempt.
	refillPart int
	// segDigest content-addresses the input segment; seg is nil when
	// the coordinator believes the worker already caches the digest.
	segDigest uint64
	segID     int
	seg       *mapreduce.Segment
}

// maxSegmentRecords caps a decoded assignment's record count; segments
// in this repo are thousands of records, so the cap only rejects
// forged counts before allocation.
const maxSegmentRecords = 1 << 26

// maxWorkers caps decoded topology tables (owners/addrs).
const maxWorkers = 1 << 12

// maxFaultDelay caps a decoded fault's stall: plans delay by
// milliseconds, so anything near a second is forged.
const maxFaultDelay = time.Second

// appendFaults writes an attempt's armed faults — the one per-attempt
// fault field of assign and reduce (protocol v7): count, then point,
// kind, ordinal and delay per fault.
func appendFaults(e *wire.Encoder, fs mapreduce.AttemptFaults) {
	e.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		e.Byte(byte(f.Point))
		e.Byte(byte(f.Kind))
		e.Varint(f.At)
		e.Varint(int64(f.Delay))
	}
}

// decodeFaults rejects a fault outside the plan's points and kinds, a
// negative ordinal, or a delay no plan arms.
func decodeFaults(d *wire.Decoder) (mapreduce.AttemptFaults, error) {
	points, kinds := len(mapreduce.AllFaultPoints()), len(mapreduce.AllFaultKinds())
	n := d.Length(points)
	if d.Err() != nil {
		return nil, d.Err()
	}
	var fs mapreduce.AttemptFaults
	for i := 0; i < n; i++ {
		f := mapreduce.Fault{Point: mapreduce.FaultPoint(d.Byte()), Kind: mapreduce.FaultKind(d.Byte()),
			At: d.Varint(), Delay: time.Duration(d.Varint())}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if int(f.Point) >= points || int(f.Kind) >= kinds || f.At < 0 || f.Delay < 0 || f.Delay > maxFaultDelay {
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
	e.Bool(a.w2w)
	if a.w2w {
		e.Uvarint(a.jobID)
		e.Uvarint(uint64(a.selfID))
		e.Uvarint(uint64(len(a.owners)))
		for _, o := range a.owners {
			e.Uvarint(uint64(o))
		}
		e.Uvarint(uint64(len(a.addrs)))
		for _, s := range a.addrs {
			e.String(s)
		}
		e.Varint(int64(a.refillPart))
	}
	e.Uvarint(uint64(a.segID))
	e.Uvarint(a.segDigest)
	if a.seg == nil {
		e.Bool(false) // digest-only: the worker resolves it from cache
		return e.Bytes()
	}
	e.Bool(true)
	e.Uvarint(uint64(len(a.seg.Records)))
	for _, r := range a.seg.Records {
		e.BytesField(r)
	}
	return e.Bytes()
}

func decodeAssign(payload []byte) (*assignment, error) {
	d := wire.NewDecoder(payload)
	a := &assignment{
		spec:       decodeJobSpec(d),
		task:       int(d.Uvarint()),
		attempt:    int(d.Uvarint()),
		refillPart: -1,
	}
	var err error
	if a.faults, err = decodeFaults(d); err != nil {
		return nil, err
	}
	if d.Bool() {
		a.w2w = true
		a.jobID = d.Uvarint()
		a.selfID = int(d.Uvarint())
		no := d.Length(maxParts)
		if d.Err() != nil {
			return nil, d.Err()
		}
		a.owners = make([]int, no)
		for i := range a.owners {
			a.owners[i] = int(d.Uvarint())
		}
		na := d.Length(maxWorkers)
		if d.Err() != nil {
			return nil, d.Err()
		}
		a.addrs = make([]string, na)
		for i := range a.addrs {
			a.addrs[i] = d.String()
		}
		a.refillPart = int(d.Varint())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if a.selfID < 0 || a.selfID >= len(a.addrs) {
			return nil, fmt.Errorf("%w: assignment self ID %d outside %d workers", ErrFrame, a.selfID, len(a.addrs))
		}
		for _, o := range a.owners {
			if o < 0 || o >= len(a.addrs) {
				return nil, fmt.Errorf("%w: assignment owner %d outside %d workers", ErrFrame, o, len(a.addrs))
			}
		}
	}
	a.segID = int(d.Uvarint())
	a.segDigest = d.Uvarint()
	if !d.Bool() {
		// Digest-only assignment: no payload follows.
		if d.Err() != nil {
			return nil, d.Err()
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes after assignment", ErrFrame, d.Remaining())
		}
		return a, nil
	}
	n := d.Length(maxSegmentRecords)
	if d.Err() != nil {
		return nil, d.Err()
	}
	recs := make([][]byte, n)
	for i := range recs {
		b := d.BytesField()
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Copy out of the frame buffer: segments outlive the frame.
		recs[i] = append([]byte(nil), b...)
	}
	a.seg = &mapreduce.Segment{ID: a.segID, Records: recs}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after assignment", ErrFrame, d.Remaining())
	}
	return a, nil
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
	seg := d.BytesField()
	if d.Err() != nil {
		return mapreduce.Run{}, d.Err()
	}
	if d.Remaining() != 0 {
		return mapreduce.Run{}, fmt.Errorf("%w: %d trailing bytes after run", ErrFrame, d.Remaining())
	}
	r.Seg = append([]byte(nil), seg...) // outlives the frame buffer
	r.Bytes = int64(len(r.Seg))
	return r, nil
}

// mapDone is the attempt-closing metrics message, the wire form of the
// non-run fields of mapreduce.MapOutput.
type mapDone struct {
	emitted    int64
	records    int64
	inputBytes int64
	duration   time.Duration
	// procs is the worker's GOMAXPROCS — the benchmark methodology
	// records it per worker so oversubscribed hosts are visible.
	procs   int
	logical []int64
}

// maxParts caps the per-partition slice in a decoded mapDone.
const maxParts = 1 << 16

func encodeMapDone(m *mapDone) []byte {
	e := wire.NewEncoder(64)
	e.Varint(m.emitted)
	e.Varint(m.records)
	e.Varint(m.inputBytes)
	e.Varint(int64(m.duration))
	e.Varint(int64(m.procs))
	e.Uvarint(uint64(len(m.logical)))
	for _, v := range m.logical {
		e.Varint(v)
	}
	return e.Bytes()
}

func decodeMapDone(payload []byte) (*mapDone, error) {
	d := wire.NewDecoder(payload)
	m := &mapDone{
		emitted:    d.Varint(),
		records:    d.Varint(),
		inputBytes: d.Varint(),
		duration:   time.Duration(d.Varint()),
		procs:      int(d.Varint()),
	}
	n := d.Length(maxParts)
	if d.Err() != nil {
		return nil, d.Err()
	}
	m.logical = make([]int64, n)
	for i := range m.logical {
		m.logical[i] = d.Varint()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after map-done", ErrFrame, d.Remaining())
	}
	return m, nil
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
		return nil, d.Err()
	}
	spans := make([]*obs.Span, 0, n)
	for i := 0; i < n; i++ {
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
		if d.Err() != nil {
			return nil, d.Err()
		}
		spans = append(spans, sp)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after spans", ErrFrame, d.Remaining())
	}
	return spans, nil
}

func encodeError(msg string) []byte {
	e := wire.NewEncoder(len(msg) + 4)
	e.String(msg)
	return e.Bytes()
}

func decodeError(payload []byte) (string, error) {
	d := wire.NewDecoder(payload)
	msg := d.String()
	if d.Err() != nil {
		return "", d.Err()
	}
	return msg, nil
}

// --- worker-to-worker shuffle codecs (protocol version 2) ---

// taskAttempt names one committed map attempt.
type taskAttempt struct {
	task    int
	attempt int
}

// encodePeerHello builds the peer-connection opener: magic, version,
// and the job the pushes belong to. The receiver echoes the payload
// back verbatim as its accept.
func encodePeerHello(jobID uint64) []byte {
	e := wire.NewEncoder(16)
	e.Uvarint(helloMagic)
	e.Uvarint(ProtocolVersion)
	e.Uvarint(jobID)
	return e.Bytes()
}

func decodePeerHello(payload []byte) (jobID uint64, err error) {
	d := wire.NewDecoder(payload)
	magic := d.Uvarint()
	version := d.Uvarint()
	jobID = d.Uvarint()
	if d.Err() != nil {
		return 0, fmt.Errorf("%w: truncated peer hello", ErrFrame)
	}
	if magic != helloMagic {
		return 0, fmt.Errorf("%w: bad peer hello magic 0x%x", ErrFrame, magic)
	}
	if version != ProtocolVersion {
		return 0, fmt.Errorf("cluster: peer protocol version %d not supported (want %d)", version, ProtocolVersion)
	}
	if d.Remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after peer hello", ErrFrame, d.Remaining())
	}
	return jobID, nil
}

func encodeRunPush(jobID uint64, r mapreduce.Run) []byte {
	e := wire.NewEncoder(len(r.Seg) + 24)
	e.Uvarint(jobID)
	e.Uvarint(uint64(r.Task))
	e.Uvarint(uint64(r.Attempt))
	e.Uvarint(uint64(r.Part))
	e.BytesField(r.Seg)
	return e.Bytes()
}

func decodeRunPush(payload []byte) (jobID uint64, r mapreduce.Run, err error) {
	d := wire.NewDecoder(payload)
	jobID = d.Uvarint()
	r = mapreduce.Run{
		Task:    int(d.Uvarint()),
		Attempt: int(d.Uvarint()),
		Part:    int(d.Uvarint()),
	}
	seg := d.BytesField()
	if d.Err() != nil {
		return 0, mapreduce.Run{}, d.Err()
	}
	if d.Remaining() != 0 {
		return 0, mapreduce.Run{}, fmt.Errorf("%w: %d trailing bytes after run push", ErrFrame, d.Remaining())
	}
	r.Seg = append([]byte(nil), seg...) // buffered runs outlive the frame
	r.Bytes = int64(len(r.Seg))
	return jobID, r, nil
}

func encodePartDone(jobID uint64, task, attempt, count int) []byte {
	e := wire.NewEncoder(24)
	e.Uvarint(jobID)
	e.Uvarint(uint64(task))
	e.Uvarint(uint64(attempt))
	e.Uvarint(uint64(count))
	return e.Bytes()
}

func decodePartDone(payload []byte) (jobID uint64, ta taskAttempt, count int, err error) {
	d := wire.NewDecoder(payload)
	jobID = d.Uvarint()
	ta = taskAttempt{task: int(d.Uvarint()), attempt: int(d.Uvarint())}
	count = int(d.Uvarint())
	if d.Err() != nil {
		return 0, taskAttempt{}, 0, d.Err()
	}
	if d.Remaining() != 0 {
		return 0, taskAttempt{}, 0, fmt.Errorf("%w: %d trailing bytes after partition done", ErrFrame, d.Remaining())
	}
	return jobID, ta, count, nil
}

func encodeRunReceipt(r mapreduce.Run) []byte {
	e := wire.NewEncoder(24)
	e.Uvarint(uint64(r.Task))
	e.Uvarint(uint64(r.Attempt))
	e.Uvarint(uint64(r.Part))
	e.Varint(r.Bytes)
	return e.Bytes()
}

func decodeRunReceipt(payload []byte) (mapreduce.Run, error) {
	d := wire.NewDecoder(payload)
	r := mapreduce.Run{
		Task:    int(d.Uvarint()),
		Attempt: int(d.Uvarint()),
		Part:    int(d.Uvarint()),
		Bytes:   d.Varint(),
	}
	if d.Err() != nil {
		return mapreduce.Run{}, d.Err()
	}
	if d.Remaining() != 0 {
		return mapreduce.Run{}, fmt.Errorf("%w: %d trailing bytes after run receipt", ErrFrame, d.Remaining())
	}
	if r.Bytes <= 0 {
		return mapreduce.Run{}, fmt.Errorf("%w: run receipt with non-positive byte count %d", ErrFrame, r.Bytes)
	}
	return r, nil
}

// reduceReq is one worker-resident reduce attempt request.
type reduceReq struct {
	jobID uint64
	spec  JobSpec
	part  int
	// faults are the reduce attempt's, fired by the owner at the reduce
	// points; a kill loses the partition's buffered runs with the
	// connection, so the retried attempt exercises the refill path.
	faults mapreduce.AttemptFaults
	// commits is the coordinator's committed run list for the
	// partition; the worker reduces exactly these and reports any it
	// never received.
	commits []taskAttempt
}

// maxReduceCommits caps a decoded commit list (one entry per map task).
const maxReduceCommits = 1 << 20

func encodeReduce(q *reduceReq) []byte {
	e := wire.NewEncoder(64 + len(q.commits)*4)
	e.Uvarint(q.jobID)
	appendJobSpec(e, q.spec)
	e.Uvarint(uint64(q.part))
	appendFaults(e, q.faults)
	e.Uvarint(uint64(len(q.commits)))
	for _, c := range q.commits {
		e.Uvarint(uint64(c.task))
		e.Uvarint(uint64(c.attempt))
	}
	return e.Bytes()
}

func decodeReduce(payload []byte) (*reduceReq, error) {
	d := wire.NewDecoder(payload)
	q := &reduceReq{
		jobID: d.Uvarint(),
		spec:  decodeJobSpec(d),
		part:  int(d.Uvarint()),
	}
	var err error
	if q.faults, err = decodeFaults(d); err != nil {
		return nil, err
	}
	n := d.Length(maxReduceCommits)
	if d.Err() != nil {
		return nil, d.Err()
	}
	q.commits = make([]taskAttempt, n)
	for i := range q.commits {
		q.commits[i] = taskAttempt{task: int(d.Uvarint()), attempt: int(d.Uvarint())}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after reduce request", ErrFrame, d.Remaining())
	}
	return q, nil
}

// maxReduceGroups caps a decoded reduce reply's group count, and
// maxGroupRows one group's row count.
const (
	maxReduceGroups = 1 << 21
	maxGroupRows    = 1 << 21
)

// encodeReduceMissing builds the "refill me" reduce reply: the
// committed runs the owner never received.
func encodeReduceMissing(missing []taskAttempt) []byte {
	e := wire.NewEncoder(16 + len(missing)*4)
	e.Uvarint(uint64(len(missing)))
	for _, m := range missing {
		e.Uvarint(uint64(m.task))
		e.Uvarint(uint64(m.attempt))
	}
	e.Uvarint(0) // zero groups
	return e.Bytes()
}

// encodeReduceGroups builds the successful reduce reply: the merged
// (and combined) key groups in the engine's streaming order.
func encodeReduceGroups(groups []mapreduce.ReducedGroup) []byte {
	e := wire.NewEncoder(1 << 12)
	e.Uvarint(0) // nothing missing
	e.Uvarint(uint64(len(groups)))
	for _, g := range groups {
		e.String(g.Key)
		e.Uvarint(uint64(len(g.Rows)))
		for _, r := range g.Rows {
			e.Uvarint(uint64(r.MapperID))
			e.Varint(r.RecordID)
			e.BytesField(r.Value)
		}
	}
	return e.Bytes()
}

// decodeReduceDone decodes a reduce reply. Exactly one of groups and
// missing is meaningful: a non-empty missing list means the owner
// needs refills before it can reduce. Row values are copied out of the
// frame buffer.
func decodeReduceDone(payload []byte) (groups []mapreduce.ReducedGroup, missing []taskAttempt, err error) {
	d := wire.NewDecoder(payload)
	nm := d.Length(maxReduceCommits)
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	if nm > 0 {
		missing = make([]taskAttempt, nm)
		for i := range missing {
			missing[i] = taskAttempt{task: int(d.Uvarint()), attempt: int(d.Uvarint())}
		}
	}
	ng := d.Length(maxReduceGroups)
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	if ng > 0 {
		groups = make([]mapreduce.ReducedGroup, 0, min(ng, d.Remaining()/2+1))
		for i := 0; i < ng; i++ {
			g := mapreduce.ReducedGroup{Key: d.String()}
			nr := d.Length(maxGroupRows)
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
			g.Rows = make([]mapreduce.Shuffled, 0, min(nr, d.Remaining()/3+1))
			for j := 0; j < nr; j++ {
				row := mapreduce.Shuffled{
					MapperID: int(d.Uvarint()),
					RecordID: d.Varint(),
				}
				row.Value = append([]byte(nil), d.BytesField()...)
				if d.Err() != nil {
					return nil, nil, d.Err()
				}
				g.Rows = append(g.Rows, row)
			}
			groups = append(groups, g)
		}
	}
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after reduce reply", ErrFrame, d.Remaining())
	}
	if len(missing) > 0 && len(groups) > 0 {
		return nil, nil, fmt.Errorf("%w: reduce reply carries both groups and missing runs", ErrFrame)
	}
	return groups, missing, nil
}

func encodeJobDone(jobID uint64) []byte {
	e := wire.NewEncoder(12)
	e.Uvarint(jobID)
	return e.Bytes()
}

func decodeJobDone(payload []byte) (uint64, error) {
	d := wire.NewDecoder(payload)
	jobID := d.Uvarint()
	if d.Err() != nil {
		return 0, d.Err()
	}
	if d.Remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes after job done", ErrFrame, d.Remaining())
	}
	return jobID, nil
}
