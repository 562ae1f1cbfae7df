package cluster

import (
	"fmt"

	"repro/internal/wire"
)

// Payload codecs for the query-service job frames. Same contract as
// proto.go: every decoder is total — corrupt input returns an error
// wrapping ErrFrame, never a panic — and ends in the shared tail; the
// frame fuzz corpus pins both the valid and corrupt classes.

// maxServeString caps the tenant/query/dataset/reason strings in job
// frames; they are identifiers and short sentences, not payloads.
const maxServeString = 1 << 12

// JobSubmit asks a serve-mode daemon to run one query job (client →
// server, FrameJobSubmit).
type JobSubmit struct {
	// Tenant is the admission-control principal the job is billed to.
	Tenant string
	// Query is the registered query ID (e.g. "G1").
	Query string
	// Dataset names a dataset hosted by the service.
	Dataset string
	// Tail subscribes to the dataset: instead of one final result the
	// job emits a refreshed result every TailEvery appended segments
	// until cancelled.
	Tail bool
	// TailEvery is the tail refresh stride in segments (min 1).
	TailEvery int
}

// JobAccept is the immediate admission verdict for one submit (server →
// client, FrameJobAccept).
type JobAccept struct {
	// ID is the service-assigned job ID echoed by every later frame for
	// this job. Zero when the job was rejected.
	ID uint64
	// OK reports admission; when false, Reason says why (queue full,
	// unknown query or dataset, over budget).
	OK     bool
	Reason string
	// QueuePos is the number of jobs ahead in the tenant's queue at
	// admission time (0 = dispatched immediately).
	QueuePos int
}

// JobUpdate is one refreshed result of a tail job (server → client,
// FrameJobUpdate).
type JobUpdate struct {
	ID uint64
	// Seq numbers the updates of one job from 1, in emit order.
	Seq uint64
	// Digest/NumResults mirror queries.Run: the digest of the formatted
	// result lines and the group count.
	Digest     uint64
	NumResults int
	// Segments counts the segments folded into this result; CacheHits
	// of them came from the summary cache and MappedSegments were
	// mapped fresh by this job.
	Segments       int
	CacheHits      int
	MappedSegments int
}

// JobResult settles a job (server → client, FrameJobResult).
type JobResult struct {
	ID uint64
	// Err is the job error ("" on success; "cancelled" after a
	// JobCancel or client disconnect).
	Err        string
	Digest     uint64
	NumResults int
	// Segments/CacheHits/MappedSegments carry the final fold's
	// provenance, as in JobUpdate. Updates counts the tail updates
	// emitted before settling.
	Segments       int
	CacheHits      int
	MappedSegments int
	Updates        int
}

// JobCancel asks the service to cancel an accepted job (client →
// server, FrameJobCancel). The job still settles with a JobResult.
type JobCancel struct {
	ID uint64
}

// EncodeJobSubmit encodes a FrameJobSubmit payload.
func EncodeJobSubmit(s JobSubmit) []byte {
	e := wire.NewEncoder(len(s.Tenant) + len(s.Query) + len(s.Dataset) + 16)
	e.String(s.Tenant)
	e.String(s.Query)
	e.String(s.Dataset)
	e.Bool(s.Tail)
	e.Uvarint(uint64(s.TailEvery))
	return e.Bytes()
}

// DecodeJobSubmit decodes a FrameJobSubmit payload.
func DecodeJobSubmit(payload []byte) (JobSubmit, error) {
	d := wire.NewDecoder(payload)
	s := JobSubmit{Tenant: d.String(), Query: d.String(), Dataset: d.String(),
		Tail: d.Bool(), TailEvery: int(d.Uvarint())}
	if len(s.Tenant) > maxServeString || len(s.Query) > maxServeString || len(s.Dataset) > maxServeString {
		return JobSubmit{}, fmt.Errorf("%w: oversized job submit field", ErrFrame)
	}
	return decoded(s, d, "job submit")
}

// EncodeJobAccept encodes a FrameJobAccept payload.
func EncodeJobAccept(a JobAccept) []byte {
	e := wire.NewEncoder(len(a.Reason) + 16)
	e.Uvarint(a.ID)
	e.Bool(a.OK)
	e.String(a.Reason)
	e.Uvarint(uint64(a.QueuePos))
	return e.Bytes()
}

// DecodeJobAccept decodes a FrameJobAccept payload.
func DecodeJobAccept(payload []byte) (JobAccept, error) {
	d := wire.NewDecoder(payload)
	a := JobAccept{ID: d.Uvarint(), OK: d.Bool(), Reason: d.String(), QueuePos: int(d.Uvarint())}
	if len(a.Reason) > maxServeString {
		return JobAccept{}, fmt.Errorf("%w: oversized job accept reason", ErrFrame)
	}
	return decoded(a, d, "job accept")
}

// EncodeJobUpdate encodes a FrameJobUpdate payload.
func EncodeJobUpdate(u JobUpdate) []byte {
	e := wire.NewEncoder(40)
	e.Uvarint(u.ID)
	e.Uvarint(u.Seq)
	e.Uint64(u.Digest)
	e.Uvarint(uint64(u.NumResults))
	e.Uvarint(uint64(u.Segments))
	e.Uvarint(uint64(u.CacheHits))
	e.Uvarint(uint64(u.MappedSegments))
	return e.Bytes()
}

// DecodeJobUpdate decodes a FrameJobUpdate payload.
func DecodeJobUpdate(payload []byte) (JobUpdate, error) {
	d := wire.NewDecoder(payload)
	return decoded(JobUpdate{ID: d.Uvarint(), Seq: d.Uvarint(), Digest: d.Uint64(),
		NumResults: int(d.Uvarint()), Segments: int(d.Uvarint()), CacheHits: int(d.Uvarint()),
		MappedSegments: int(d.Uvarint())}, d, "job update")
}

// EncodeJobResult encodes a FrameJobResult payload.
func EncodeJobResult(r JobResult) []byte {
	e := wire.NewEncoder(len(r.Err) + 48)
	e.Uvarint(r.ID)
	e.String(r.Err)
	e.Uint64(r.Digest)
	e.Uvarint(uint64(r.NumResults))
	e.Uvarint(uint64(r.Segments))
	e.Uvarint(uint64(r.CacheHits))
	e.Uvarint(uint64(r.MappedSegments))
	e.Uvarint(uint64(r.Updates))
	return e.Bytes()
}

// DecodeJobResult decodes a FrameJobResult payload.
func DecodeJobResult(payload []byte) (JobResult, error) {
	d := wire.NewDecoder(payload)
	r := JobResult{ID: d.Uvarint(), Err: d.String(), Digest: d.Uint64(), NumResults: int(d.Uvarint()),
		Segments: int(d.Uvarint()), CacheHits: int(d.Uvarint()), MappedSegments: int(d.Uvarint()),
		Updates: int(d.Uvarint())}
	if len(r.Err) > maxServeString {
		return JobResult{}, fmt.Errorf("%w: oversized job result error", ErrFrame)
	}
	return decoded(r, d, "job result")
}

// EncodeJobCancel encodes a FrameJobCancel payload.
func EncodeJobCancel(c JobCancel) []byte {
	e := wire.NewEncoder(8)
	e.Uvarint(c.ID)
	return e.Bytes()
}

// DecodeJobCancel decodes a FrameJobCancel payload.
func DecodeJobCancel(payload []byte) (JobCancel, error) {
	d := wire.NewDecoder(payload)
	return decoded(JobCancel{ID: d.Uvarint()}, d, "job cancel")
}
