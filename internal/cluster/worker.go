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
// runs. In the via-coordinator topology every non-empty partition's
// encoded run streams back on the same connection; in the w2w topology
// runs push straight to each partition's owning worker (peer.go) and
// only byte-counted receipts go back. Worker-to-worker mode also makes
// the worker a reduce host: FrameReduce merges the runs buffered for a
// partition, applies the job's registered group combiner, and returns
// the (usually tiny) combined groups. Killing a worker still loses
// nothing that isn't re-derivable — buffered runs are refilled by
// re-running the committed map attempt over its retained segment.

// maxWorkerJobs caps per-job shuffle states retained by a worker; the
// oldest is evicted (peers closed, runs dropped) when exceeded.
const maxWorkerJobs = 8

// maxCachedSegments caps the content-addressed segment cache.
const maxCachedSegments = 64

// needSegmentPrefix opens the FrameError message a worker sends when a
// digest-only assignment misses its cache; the coordinator retries
// that one assignment with the payload attached.
const needSegmentPrefix = "need-segment: "

// Worker serves map assignments to coordinators.
type Worker struct {
	mu     sync.Mutex
	maps   map[JobSpec]*cachedMapper
	reds   map[JobSpec]*cachedReducer
	active atomic.Int64

	jmu      sync.Mutex
	jobs     map[uint64]*jobState
	jobOrder []uint64

	smu      sync.Mutex
	segs     map[uint64]*mapreduce.Segment
	segOrder []uint64
}

// cachedMapper is one built map side plus the trace plumbing that
// collects its spans per assignment. sympleMapFunc closes over its
// trace, so the trace and sink live as long as the mapper; runs of the
// same spec on one worker serialize on mu (one connection per worker
// in practice, so this never contends).
type cachedMapper struct {
	mu    sync.Mutex
	fn    mapreduce.MapFunc
	trace *obs.Trace
	sink  *obs.MemSink
}

// cachedReducer is the reduce-side analogue: the job's group combiner
// (nil when none is registered — groups pass through uncombined) plus
// the trace that collects the reduce attempt's spans.
type cachedReducer struct {
	mu    sync.Mutex
	comb  GroupCombiner
	trace *obs.Trace
	sink  *obs.MemSink
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	return &Worker{
		maps: map[JobSpec]*cachedMapper{},
		reds: map[JobSpec]*cachedReducer{},
		jobs: map[uint64]*jobState{},
		segs: map[uint64]*mapreduce.Segment{},
	}
}

// Active reports connections currently being served — the
// connection-leak probe the differential tests poll to zero.
func (w *Worker) Active() int { return int(w.active.Load()) }

// Jobs reports retained per-job shuffle states — the state-leak probe:
// after Pool.Close broadcasts job-done, this drains to zero.
func (w *Worker) Jobs() int {
	w.jmu.Lock()
	defer w.jmu.Unlock()
	return len(w.jobs)
}

// CachedSegments reports the content-addressed segment cache size.
func (w *Worker) CachedSegments() int {
	w.smu.Lock()
	defer w.smu.Unlock()
	return len(w.segs)
}

// DropSegmentCache empties the segment cache — the test hook that
// forces the need-segment re-ship path.
func (w *Worker) DropSegmentCache() {
	w.smu.Lock()
	w.segs = map[uint64]*mapreduce.Segment{}
	w.segOrder = w.segOrder[:0]
	w.smu.Unlock()
}

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

// serveConn handshakes and then serves the connection until the peer
// disconnects or a protocol fault or an injected kill
// (mapreduce.ErrAttemptKilled, from wherever the attempt's faults fired)
// ends it — the worker dies, abandoning the connection. The opening frame
// decides the connection's role: FrameHello starts a coordinator
// conversation (assignments, reduce requests, job-done), FramePeerHello
// a worker-to-worker push stream.
func (w *Worker) serveConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	fr, fw := newFrameReader(conn), newFrameWriter(conn)
	f, err := fr.next()
	if err != nil {
		return err
	}
	switch f.Type {
	case FramePeerHello:
		jobID, err := decodePeerHello(f.Payload)
		if err != nil {
			_ = fw.write(FrameError, encodeError(err.Error()))
			return err
		}
		if err := fw.write(FramePeerHello, f.Payload); err != nil {
			return err
		}
		return w.servePeer(jobID, fr, fw)
	case FrameHello:
		if _, err := DecodeHello(f.Payload); err != nil {
			// Tell a mismatched peer why before hanging up.
			_ = fw.write(FrameError, encodeError(err.Error()))
			return err
		}
		if err := fw.write(FrameHello, encodeHello()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: expected hello, got frame type %d", ErrFrame, f.Type)
	}
	for {
		f, err := fr.next()
		if err != nil {
			if err == io.EOF {
				return nil // coordinator hung up cleanly between requests
			}
			return err
		}
		switch f.Type {
		case FrameAssign:
			a, err := decodeAssign(f.Payload)
			if err != nil {
				// Undecodable assignment: the stream is unsynchronized, kill it.
				_ = fw.write(FrameError, encodeError(err.Error()))
				return err
			}
			if err := w.runAssignment(a, fw); err != nil {
				if errors.Is(err, mapreduce.ErrAttemptKilled) {
					return err // injected death: abandon the conn abruptly
				}
				// Attempt-level failure: report and stay available.
				if werr := fw.write(FrameError, encodeError(err.Error())); werr != nil {
					return werr
				}
			}
		case FrameReduce:
			req, err := decodeReduce(f.Payload)
			if err != nil {
				_ = fw.write(FrameError, encodeError(err.Error()))
				return err
			}
			if err := w.runReduce(req, fw); err != nil {
				if errors.Is(err, mapreduce.ErrAttemptKilled) {
					return err
				}
				if werr := fw.write(FrameError, encodeError(err.Error())); werr != nil {
					return werr
				}
			}
		case FrameJobDone:
			id, err := decodeJobDone(f.Payload)
			if err != nil {
				return err
			}
			w.dropJob(id)
		default:
			return fmt.Errorf("%w: unexpected frame type %d on coordinator connection", ErrFrame, f.Type)
		}
	}
}

// jobState returns (creating if needed) the shuffle state for a job.
// Creation is push-order agnostic: a peer's run push may land before
// this worker ever sees an assignment for the job.
func (w *Worker) jobState(id uint64) *jobState {
	w.jmu.Lock()
	defer w.jmu.Unlock()
	if js, ok := w.jobs[id]; ok {
		return js
	}
	js := newJobState(id)
	w.jobs[id] = js
	w.jobOrder = append(w.jobOrder, id)
	if len(w.jobOrder) > maxWorkerJobs {
		evict := w.jobOrder[0]
		w.jobOrder = append(w.jobOrder[:0], w.jobOrder[1:]...)
		if old, ok := w.jobs[evict]; ok {
			delete(w.jobs, evict)
			go old.dropPeers() // socket teardown off the registry lock
		}
	}
	return js
}

// dropJob discards a job's shuffle state — the FrameJobDone cleanup.
func (w *Worker) dropJob(id uint64) {
	w.jmu.Lock()
	js, ok := w.jobs[id]
	delete(w.jobs, id)
	for i, v := range w.jobOrder {
		if v == id {
			w.jobOrder = append(w.jobOrder[:i], w.jobOrder[i+1:]...)
			break
		}
	}
	w.jmu.Unlock()
	if ok {
		js.dropPeers()
	}
}

// cacheSegment stores a segment under its content digest.
func (w *Worker) cacheSegment(digest uint64, seg *mapreduce.Segment) {
	if digest == 0 {
		return
	}
	w.smu.Lock()
	defer w.smu.Unlock()
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
	w.smu.Lock()
	seg := w.segs[a.segDigest]
	w.smu.Unlock()
	if seg == nil {
		return nil, fmt.Errorf("%s%016x", needSegmentPrefix, a.segDigest)
	}
	return seg, nil
}

// isNeedSegment reports whether a worker error message is the cache
// miss that asks for a payload re-ship.
func isNeedSegment(msg string) bool { return strings.HasPrefix(msg, needSegmentPrefix) }

// mapper returns the cached map side for a spec, building and caching
// it on first use. The returned cachedMapper is locked; the caller
// unlocks when the assignment finishes.
func (w *Worker) mapper(spec JobSpec) (*cachedMapper, error) {
	w.mu.Lock()
	cm, ok := w.maps[spec]
	if !ok {
		sink := obs.NewMemSink()
		trace := obs.NewTrace(sink)
		builder, err := lookupJob(spec.Query)
		if err != nil {
			w.mu.Unlock()
			return nil, err
		}
		fn, err := builder(spec, trace)
		if err != nil {
			w.mu.Unlock()
			return nil, err
		}
		cm = &cachedMapper{fn: fn, trace: trace, sink: sink}
		w.maps[spec] = cm
	}
	w.mu.Unlock()
	cm.mu.Lock()
	cm.sink.Reset() // spans emitted from here on belong to this assignment
	return cm, nil
}

// reducer returns the cached reduce side for a spec (combiner may be
// nil), locked like mapper.
func (w *Worker) reducer(spec JobSpec) (*cachedReducer, error) {
	w.mu.Lock()
	cr, ok := w.reds[spec]
	if !ok {
		sink := obs.NewMemSink()
		trace := obs.NewTrace(sink)
		var comb GroupCombiner
		if cb := lookupCombiner(spec.Query); cb != nil {
			var err error
			comb, err = cb(spec, trace)
			if err != nil {
				w.mu.Unlock()
				return nil, err
			}
		}
		cr = &cachedReducer{comb: comb, trace: trace, sink: sink}
		w.reds[spec] = cr
	}
	w.mu.Unlock()
	cr.mu.Lock()
	cr.sink.Reset()
	return cr, nil
}

// runSink streams runs to the coordinator as FrameRun messages,
// implementing the worker half of the transport seam.
type runSink struct{ fw *frameWriter }

func (s runSink) Publish(r mapreduce.Run) error {
	return s.fw.write(FrameRun, encodeRun(r))
}

// peerRunSink is the w2w run sink: self-owned partitions buffer
// locally, the rest push to their owners, and (outside refill mode) a
// byte-counted receipt goes to the coordinator per run. It fires the
// attempt's peer-push fault: a kill takes the peer links down with the
// worker.
type peerRunSink struct {
	a      *assignment
	js     *jobState
	fw     *frameWriter // coordinator connection, for receipts
	pushed int
	counts map[int]int // owner → pushes, for the partDone barriers
}

func (s *peerRunSink) Publish(r mapreduce.Run) error {
	if s.a.refillPart >= 0 && r.Part != s.a.refillPart {
		return nil // refill re-derives one partition; drop the rest
	}
	owner := s.a.owners[r.Part]
	if owner == s.a.selfID {
		s.js.putRun(r)
	} else {
		if err := s.a.faults.Fire(context.Background(), mapreduce.PointPeerPush, int64(s.pushed)); err != nil {
			if errors.Is(err, mapreduce.ErrAttemptKilled) {
				s.js.dropPeers()
			}
			return err
		}
		pc, err := s.js.peer(owner)
		if err != nil {
			return err
		}
		if err := pc.push(s.js.id, r); err != nil {
			s.js.closePeer(owner)
			return fmt.Errorf("cluster: pushing run to worker %d: %w", owner, err)
		}
		s.pushed++
		s.counts[owner]++
	}
	if s.a.refillPart < 0 {
		return s.fw.write(FrameRunReceipt, encodeRunReceipt(r))
	}
	return nil
}

// finish runs the partition-done barrier against every pushed-to owner
// so FrameMapDone (and thus the coordinator's commit) implies the runs
// are resident where the reduce will look for them.
func (s *peerRunSink) finish(task, attempt int) error {
	for owner, n := range s.counts {
		pc, err := s.js.peer(owner)
		if err != nil {
			return err
		}
		if err := pc.partDone(s.js.id, task, attempt, n); err != nil {
			s.js.closePeer(owner)
			return fmt.Errorf("cluster: settling pushes with worker %d: %w", owner, err)
		}
	}
	return nil
}

// runAssignment executes one map attempt and streams its output.
func (w *Worker) runAssignment(a *assignment, fw *frameWriter) error {
	seg, err := w.resolveSegment(a)
	if err != nil {
		return err
	}
	cm, err := w.mapper(a.spec)
	if err != nil {
		return err
	}
	defer cm.mu.Unlock()
	var sink mapreduce.RunSink
	var ps *peerRunSink
	if a.w2w {
		js := w.jobState(a.jobID)
		js.setTopo(a.owners, a.addrs)
		ps = &peerRunSink{a: a, js: js, fw: fw, counts: map[int]int{}}
		sink = ps
	} else {
		sink = runSink{fw: fw}
	}
	out, err := mapreduce.ExecuteMap(cm.fn, seg, a.task, a.attempt,
		a.spec.NumReducers, a.spec.Compress, cm.trace, sink, a.faults...)
	if err != nil {
		return err
	}
	if ps != nil {
		if err := ps.finish(a.task, a.attempt); err != nil {
			return err
		}
	}
	// A refill re-derives an already committed attempt: its spans
	// already shipped with the original, so re-sending would double
	// them in the trace.
	if a.refillPart < 0 {
		if spans := cm.sink.Spans(); len(spans) > 0 {
			if err := fw.write(FrameSpans, encodeSpans(spans)); err != nil {
				return err
			}
		}
	}
	return fw.write(FrameMapDone, encodeMapDone(&mapDone{
		emitted:    out.Emitted,
		records:    out.Records,
		inputBytes: out.InputBytes,
		duration:   out.Duration,
		procs:      runtime.GOMAXPROCS(0),
		logical:    out.LogicalOutBytes,
	}))
}

// runReduce serves one worker-resident reduce attempt: merge the
// partition's buffered runs, combine each key group, and reply with
// the groups — or with the committed runs this worker is missing, so
// the coordinator can refill them. Spans for the attempt precede the
// reply frame and ship only on success, preserving the verifier's
// run-merged-once invariant (a failed attempt's decodes never reach
// the coordinator's trace). The attempt's faults fire in the merge; a
// kill loses the partition's buffered runs as the worker dies.
func (w *Worker) runReduce(req *reduceReq, fw *frameWriter) error {
	js := w.jobState(req.jobID)
	var missing []taskAttempt
	runs := make([]mapreduce.Run, 0, len(req.commits))
	for _, c := range req.commits {
		r, ok := js.getRun(c.task, c.attempt, req.part)
		if !ok {
			missing = append(missing, c)
			continue
		}
		runs = append(runs, r)
	}
	if len(missing) > 0 {
		return fw.write(FrameReduceDone, encodeReduceMissing(missing))
	}
	cr, err := w.reducer(req.spec)
	if err != nil {
		return err
	}
	defer cr.mu.Unlock()
	var groups []mapreduce.ReducedGroup
	err = mapreduce.MergeEncodedRuns(req.part, runs, cr.trace, func(key string, group []mapreduce.Shuffled) error {
		rows := group
		if cr.comb != nil {
			var cerr error
			rows, cerr = cr.comb(key, group)
			if cerr != nil {
				return cerr
			}
		}
		// Copy: the merge reuses the group buffer and its values alias
		// pooled decode buffers.
		g := mapreduce.ReducedGroup{Key: key, Rows: make([]mapreduce.Shuffled, len(rows))}
		for i, r := range rows {
			g.Rows[i] = mapreduce.Shuffled{
				MapperID: r.MapperID,
				RecordID: r.RecordID,
				Value:    append([]byte(nil), r.Value...),
			}
		}
		groups = append(groups, g)
		return nil
	}, req.faults...)
	if errors.Is(err, mapreduce.ErrAttemptKilled) {
		js.dropPart(req.part)
	}
	if err != nil {
		return err
	}
	if spans := cr.sink.Spans(); len(spans) > 0 {
		if err := fw.write(FrameSpans, encodeSpans(spans)); err != nil {
			return err
		}
	}
	return fw.write(FrameReduceDone, encodeReduceGroups(groups))
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
