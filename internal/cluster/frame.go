// Package cluster turns the in-process mapreduce engine into a
// coordinator/worker system over TCP. The coordinator keeps the whole
// task lifecycle — retries with backoff, speculation, the
// first-finisher-wins commit — and the whole reduce, and ships only the
// map attempt body to worker processes: a worker receives an input
// segment's records (it builds the typed-column index over its own
// cached copy), runs the registered map side, and streams the
// segcodec-encoded runs of composed summaries back. Worker death and
// connection drops surface as attempt errors the existing lifecycle
// retries, so a worker whose output never commits cannot perturb the
// merged stream — the paper's placement-invariance argument (§5.4)
// carried across a process boundary — and a dead worker costs a job
// only its retried map attempts.
//
// Everything crosses the socket inside length-prefixed, versioned
// frames (this file); payload codecs live in proto.go, the worker loop
// in worker.go, and the coordinator pool in coord.go.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is negotiated by the hello exchange; a peer speaking
// a different version is rejected before any job traffic. Version 2
// added the worker-to-worker shuffle frames and the segment digest in
// the assignment. Version 3 added the query-service job frames
// (job_submit, job_accept, job_update, job_result, job_cancel). Version
// 4 shrank the job spec (two engine knobs left the wire). Version 5
// dropped the columnar payload from the assignment: a segment ships as
// its records and nothing else. Version 6 carries the event bundle — a
// one-event group's event in place of its summary — in runs, which a v5
// peer would misread; the job spec lost the memo size; and span
// attributes and tags travel as key bytes, not names. Version 7 carries
// an attempt's armed faults as one field of the assignment. Version 8
// deleted the worker-to-worker shuffle — its seven frames, the topology
// tables in the assignment — renumbered the job frames after it, and
// widened the assignment's segment digest from one 64-bit lane to both.
// Version 9 carries a group of up to eight events in an event bundle,
// counted after its zero, which a v8 peer would reject as trailing bytes.
// Version 10 dropped the combiner flag from the job spec. Version 11
// runs carry no emit sequence column: a v10 peer's runs decode wrong.
// Version 12 dropped four span attribute keys (applies, composes,
// out_bytes, summaries), renumbering the keys a worker's spans carry.
const ProtocolVersion = 12

// helloMagic opens every hello payload, guarding against a stray TCP
// client. Spells "SYMP".
const helloMagic = 0x53594D50

// maxFrameLen caps a frame payload. The largest legitimate frame is an
// assignment carrying one input segment; 256 MiB is far above any
// in-tree corpus while still rejecting absurd lengths from a corrupt
// or hostile stream before allocation.
const maxFrameLen = 1 << 28

// ErrFrame is wrapped by every framing-layer decode error.
var ErrFrame = errors.New("cluster: corrupt frame")

// FrameType discriminates the protocol's messages.
type FrameType byte

const (
	// FrameHello is exchanged once in each direction when a connection
	// opens: magic and protocol version.
	FrameHello FrameType = 1
	// FrameAssign carries one map attempt from coordinator to worker:
	// the job spec, task/attempt IDs, and the input segment.
	FrameAssign FrameType = 2
	// FrameRun streams one encoded map-output run (a mapreduce.Run in
	// segcodec form) from worker to coordinator.
	FrameRun FrameType = 3
	// FrameSpans ships the worker-side trace spans covering the
	// attempt, for re-parenting under the coordinator's job root.
	FrameSpans FrameType = 4
	// FrameMapDone closes an attempt: metrics for the completed map.
	FrameMapDone FrameType = 5
	// FrameError reports a worker-side attempt failure; the connection
	// stays usable for the next assignment.
	FrameError FrameType = 6
	// FrameJobSubmit asks a serve-mode daemon to run one query job for a
	// tenant: tenant, query ID, dataset name, and the tail-mode knobs.
	FrameJobSubmit FrameType = 7
	// FrameJobAccept answers a submit immediately with the admission
	// verdict: the assigned job ID and queue position, or a rejection
	// reason (queue full, unknown query, over budget).
	FrameJobAccept FrameType = 8
	// FrameJobUpdate streams one refreshed result for a tail job: the
	// update sequence number, result digest, and fold provenance.
	FrameJobUpdate FrameType = 9
	// FrameJobResult closes a job: the final digest and result count, or
	// the job error, plus cache-hit/mapped-segment provenance.
	FrameJobResult FrameType = 10
	// FrameJobCancel asks the service to cancel a previously accepted
	// job (client→server); the job still settles with a FrameJobResult.
	FrameJobCancel FrameType = 11

	frameTypeMax = FrameJobCancel
)

// Frame is one decoded protocol frame.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// AppendFrame appends the wire form of one frame to dst:
//
//	[1B type][uvarint payload length][payload]
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the head of buf, returning the
// frame and the remaining bytes. It is a pure function over the buffer
// — the fuzz target — and must never panic: truncation anywhere, an
// unknown type, or an oversized length all return an error wrapping
// ErrFrame. The returned payload aliases buf.
func DecodeFrame(buf []byte) (Frame, []byte, error) {
	if len(buf) == 0 {
		return Frame{}, nil, fmt.Errorf("%w: empty buffer", ErrFrame)
	}
	t := FrameType(buf[0])
	if t == 0 || t > frameTypeMax {
		return Frame{}, nil, fmt.Errorf("%w: unknown frame type 0x%02x", ErrFrame, buf[0])
	}
	n, sz := binary.Uvarint(buf[1:])
	if sz <= 0 {
		return Frame{}, nil, fmt.Errorf("%w: bad payload length", ErrFrame)
	}
	if n > maxFrameLen {
		return Frame{}, nil, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, maxFrameLen)
	}
	rest := buf[1+sz:]
	if uint64(len(rest)) < n {
		return Frame{}, nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrFrame, len(rest), n)
	}
	return Frame{Type: t, Payload: rest[:n]}, rest[n:], nil
}

// frameReader reads frames off a stream, enforcing the same limits as
// DecodeFrame.
type frameReader struct {
	r *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next reads one frame. io.EOF surfaces unchanged at a clean frame
// boundary; truncation mid-frame becomes io.ErrUnexpectedEOF.
func (fr *frameReader) next() (Frame, error) {
	tb, err := fr.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	t := FrameType(tb)
	if t == 0 || t > frameTypeMax {
		return Frame{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrFrame, tb)
	}
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: reading payload length: %v", ErrFrame, err)
	}
	if n > maxFrameLen {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrame, n, maxFrameLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
	}
	return Frame{Type: t, Payload: payload}, nil
}

// frameWriter writes frames to a stream, flushing after every frame so
// the peer never waits on a partially buffered message.
type frameWriter struct {
	w   *bufio.Writer
	buf []byte
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{w: bufio.NewWriterSize(w, 64<<10)}
}

func (fw *frameWriter) write(t FrameType, payload []byte) error {
	fw.buf = AppendFrame(fw.buf[:0], t, payload)
	if _, err := fw.w.Write(fw.buf); err != nil {
		return err
	}
	return fw.w.Flush()
}
