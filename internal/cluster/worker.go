package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// The worker side: accept coordinator connections, exchange hellos,
// then serve assignments one at a time per connection. Each assignment
// runs the registered map side over the shipped segment via
// mapreduce.ExecuteMap — the exact attempt body the in-process engine
// runs — and streams every non-empty partition's encoded run back on the
// same connection. A worker holds nothing a job needs beyond the attempt
// it is running: killing one loses only that attempt, which the
// coordinator retries elsewhere.

// maxCachedSegments caps the content-addressed segment cache.
const maxCachedSegments = 64

// needSegmentPrefix opens the FrameError message a worker sends when a
// digest-only assignment misses its cache; the coordinator retries
// that one assignment with the payload attached.
const needSegmentPrefix = "need-segment: "

// Worker serves map assignments to coordinators.
type Worker struct {
	active atomic.Int64

	mu       sync.Mutex
	segs     map[mapreduce.Digest]*mapreduce.Segment
	segOrder []mapreduce.Digest
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{segs: map[mapreduce.Digest]*mapreduce.Segment{}}
}

// Active reports connections currently being served — the
// connection-leak probe the differential tests poll to zero.
func (w *Worker) Active() int { return int(w.active.Load()) }

// Serve accepts and serves connections until ln is closed or ctx is
// cancelled; a closed listener returns nil.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.active.Add(1)
			defer w.active.Add(-1)
			w.serveConn(ctx, conn) // per-connection errors end that conn only
		}()
	}
}

// serveConn handshakes and then serves assignments until the
// coordinator disconnects or a protocol fault or an injected kill
// (mapreduce.ErrAttemptKilled, from wherever the attempt's faults fired)
// ends it — the worker dies, abandoning the connection.
func (w *Worker) serveConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	fc := NewFrameConn(conn)
	if err := fc.AcceptHello(); err != nil {
		return err
	}
	for {
		f, err := fc.Next()
		if err != nil {
			if err == io.EOF {
				return nil // coordinator hung up cleanly between requests
			}
			return err
		}
		if f.Type != FrameAssign {
			return fmt.Errorf("%w: unexpected frame type %d on coordinator connection", ErrFrame, f.Type)
		}
		a, err := decodeAssign(f.Payload)
		if err != nil {
			// Undecodable assignment: the stream is unsynchronized, kill it.
			_ = fc.Write(FrameError, encodeError(err.Error()))
			return err
		}
		if err := w.runAssignment(a, fc); err != nil {
			if errors.Is(err, mapreduce.ErrAttemptKilled) {
				return err // injected death: abandon the conn abruptly
			}
			// Attempt-level failure: report and stay available.
			if werr := fc.Write(FrameError, encodeError(err.Error())); werr != nil {
				return werr
			}
		}
	}
}

// cacheSegment stores a segment under its content digest.
func (w *Worker) cacheSegment(digest mapreduce.Digest, seg *mapreduce.Segment) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.segs[digest]; ok {
		return
	}
	w.segs[digest] = seg
	w.segOrder = append(w.segOrder, digest)
	if len(w.segOrder) > maxCachedSegments {
		evict := w.segOrder[0]
		w.segOrder = append(w.segOrder[:0], w.segOrder[1:]...)
		delete(w.segs, evict)
	}
}

// resolveSegment produces the assignment's input segment: the attached
// payload (cached for next time), or the digest cache. A cache miss on
// a digest-only assignment is the need-segment error the coordinator
// answers by re-sending with the payload.
func (w *Worker) resolveSegment(a *assignment) (*mapreduce.Segment, error) {
	if a.seg != nil {
		w.cacheSegment(a.segDigest, a.seg)
		return a.seg, nil
	}
	w.mu.Lock()
	seg := w.segs[a.segDigest]
	w.mu.Unlock()
	if seg == nil {
		return nil, fmt.Errorf("%s%016x%016x", needSegmentPrefix, a.segDigest[0], a.segDigest[1])
	}
	return seg, nil
}

// isNeedSegment reports whether a worker error message is the cache
// miss that asks for a payload re-ship.
func isNeedSegment(msg string) bool { return strings.HasPrefix(msg, needSegmentPrefix) }

// runSink streams runs to the coordinator as FrameRun messages.
type runSink struct{ fc *FrameConn }

func (s runSink) Publish(r mapreduce.Run) error {
	return s.fc.Write(FrameRun, encodeRun(r))
}

// runAssignment executes one map attempt and streams its output.
func (w *Worker) runAssignment(a *assignment, fc *FrameConn) error {
	seg, err := w.resolveSegment(a)
	if err != nil {
		return err
	}
	builder, err := lookupJob(a.spec.Query)
	if err != nil {
		return err
	}
	// The assignment's own spans: a concurrent one of the same job
	// collects its own.
	sink := obs.NewMemSink()
	trace := obs.NewTrace(sink)
	out, err := mapreduce.ExecuteMap(builder(trace), seg, a.task, a.attempt,
		a.spec.NumReducers, false, trace, runSink{fc: fc}, a.faults...)
	if err != nil {
		return err
	}
	if spans := sink.Spans(); len(spans) > 0 {
		if err := fc.Write(FrameSpans, encodeSpans(spans)); err != nil {
			return err
		}
	}
	return fc.Write(FrameMapDone, encodeMapDone(&mapDone{
		emitted:  out.Emitted,
		duration: out.Duration,
		procs:    runtime.GOMAXPROCS(0),
		logical:  out.LogicalOutBytes,
	}))
}

// WorkerMain runs a worker daemon the way cmd/sympled and the spawned
// subprocess mode use it: listen on addr (host:0 picks a free port),
// announce the bound address on stdout as "SYMPLED LISTEN <addr>", and
// serve until stdin reaches EOF — the parent closing the pipe (or
// dying) is the shutdown signal, so orphaned workers cannot linger.
func WorkerMain(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: worker listen: %w", err)
	}
	fmt.Printf("%s%s\n", spawnBanner, ln.Addr())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer cancel()
		// Block until the parent closes our stdin (EOF) or it errors.
		_, _ = io.Copy(io.Discard, bufio.NewReader(os.Stdin))
	}()
	return NewWorker().Serve(ctx, ln)
}
