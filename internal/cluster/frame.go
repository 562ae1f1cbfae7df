// Package cluster turns the in-process mapreduce engine into a
// coordinator/worker system over TCP. The coordinator keeps the whole
// task lifecycle — retries with backoff, speculation, the
// first-finisher-wins commit — and the whole reduce, and ships only the
// map attempt body to worker processes: a worker receives an input
// segment's records (it keeps the grouped forms of its own cached copy),
// runs the registered map side, and streams the
// segcodec-encoded runs of composed summaries back, in the segment's
// one (raw) wire form. Worker death and connection drops surface as
// attempt errors the existing lifecycle retries, so a worker whose
// output never commits cannot perturb the merged stream — the paper's
// placement-invariance argument (§5.4) carried across a process
// boundary — and a dead worker costs a job only its retried map
// attempts.
//
// Everything crosses the socket as length-prefixed, versioned frames
// over one FrameConn per connection (this file), opened by one hello
// exchange; the serve package speaks the same frames for its job
// protocol. Payload codecs live in proto.go and serveproto.go, each
// decoder ending in the one shared tail; the worker loop is in
// worker.go and the coordinator pool in coord.go.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ProtocolVersion is negotiated by the hello exchange; a peer speaking
// a different version is rejected before any job traffic. It moves only
// when a frame's layout does: frame types and the enums that travel in
// frames (span keys, fault points and kinds) have fixed numbers, and a
// deleted one's number stays reserved. DESIGN.md's "Frame protocol"
// section keeps the version history.
const ProtocolVersion = 14

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

// FrameConn is the one framed connection every endpoint holds — the
// coordinator's lease, the worker's, and the serve server's and
// client's: a buffered reader, a buffered writer flushed after every
// frame so the peer never waits on a partial message, and a write
// mutex. Reads are single-consumer (one goroutine owns Next); writes
// may come from many goroutines, each frame whole. The hello exchange
// opens every connection: DialHello on the side that dialed,
// AcceptHello on the side that accepted.
type FrameConn struct {
	r   *bufio.Reader
	wmu sync.Mutex
	w   *bufio.Writer
	buf []byte
}

// NewFrameConn wraps rw (usually a net.Conn) in frame framing. The
// caller keeps ownership of rw and closes it to unblock Next.
func NewFrameConn(rw io.ReadWriter) *FrameConn {
	return &FrameConn{r: bufio.NewReaderSize(rw, 64<<10), w: bufio.NewWriterSize(rw, 64<<10)}
}

// Write sends one frame and flushes. Safe for concurrent use.
func (c *FrameConn) Write(t FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf = AppendFrame(c.buf[:0], t, payload)
	if _, err := c.w.Write(c.buf); err != nil {
		return err
	}
	return c.w.Flush()
}

// Next reads one frame, enforcing the same limits as DecodeFrame.
// io.EOF surfaces unchanged at a clean frame boundary; truncation
// mid-frame becomes io.ErrUnexpectedEOF.
func (c *FrameConn) Next() (Frame, error) {
	tb, err := c.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	t := FrameType(tb)
	if t == 0 || t > frameTypeMax {
		return Frame{}, fmt.Errorf("%w: unknown frame type 0x%02x", ErrFrame, tb)
	}
	n, err := binary.ReadUvarint(c.r)
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
	if _, err := io.ReadFull(c.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("%w: truncated payload: %v", ErrFrame, err)
	}
	return Frame{Type: t, Payload: payload}, nil
}

// DialHello is the dialing side's half of the hello exchange: send our
// hello, then take the peer's in reply — or the reason its FrameError
// gives for turning ours away.
func (c *FrameConn) DialHello() error {
	if err := c.Write(FrameHello, encodeHello()); err != nil {
		return fmt.Errorf("cluster: hello send: %w", err)
	}
	f, err := c.Next()
	if err != nil {
		return fmt.Errorf("cluster: hello reply: %w", err)
	}
	switch f.Type {
	case FrameHello:
		return decodeHello(f.Payload)
	case FrameError:
		msg, err := decodeError(f.Payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("cluster: peer rejected hello: %s", msg)
	}
	return fmt.Errorf("%w: expected hello reply, got frame type %d", ErrFrame, f.Type)
}

// AcceptHello is the accepting side's half: read the peer's hello and
// answer with ours, or with a FrameError that says why it was refused.
func (c *FrameConn) AcceptHello() error {
	f, err := c.Next()
	if err != nil {
		return err
	}
	if f.Type != FrameHello {
		err = fmt.Errorf("%w: expected hello, got frame type %d", ErrFrame, f.Type)
	} else {
		err = decodeHello(f.Payload)
	}
	if err != nil {
		// Tell the peer why before the caller hangs up; a failed write
		// changes nothing, the connection is dropped either way.
		_ = c.Write(FrameError, encodeError(err.Error()))
		return err
	}
	return c.Write(FrameHello, encodeHello())
}
