package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// The coordinator side. A Pool implements mapreduce.RemoteMapper over a
// fixed set of worker endpoints: RunMap leases a connection, ships the
// assignment, and demultiplexes the reply stream back into a
// mapreduce.MapOutput. Any connection failure retires the lease and
// surfaces as an attempt error; a background redial restores the
// worker, and the engine's retry/speculation machinery does the rest.
// The pool never commits anything itself: first-finisher-wins stays
// with the engine, exactly as in process, and so does the reduce — the
// runs a pool hands back are the ones an in-process attempt would have
// produced, and the engine merges them on its own reduce tasks. A
// worker that dies for good costs the job only the map attempts it was
// running: the survivors take the retries.
//
// Segments are content-addressed by both lanes of a 128-bit digest:
// once a worker has acknowledged an attempt over some segment, later
// attempts ship only the digest, and a worker whose cache was lost
// answers need-segment to get one payload re-ship.

// Endpoint is one worker the pool can (re)connect to.
type Endpoint interface {
	// Connect establishes a fresh transport connection to the worker.
	Connect(ctx context.Context) (net.Conn, error)
	// Addr is the worker's listen address, the identity placements and
	// per-worker reports name it by.
	Addr() string
	// Close releases the endpoint (kills a spawned worker process).
	Close() error
}

// dialEndpoint connects to an already-listening worker address.
type dialEndpoint struct{ addr string }

// Dial returns an endpoint for a worker listening on addr.
func Dial(addr string) Endpoint { return &dialEndpoint{addr: addr} }

func (e *dialEndpoint) Connect(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", e.addr)
}

// Addr returns the worker's listen address.
func (e *dialEndpoint) Addr() string { return e.addr }

func (e *dialEndpoint) Close() error { return nil }

// workerConn is one leased connection to a worker.
type workerConn struct {
	ep   Endpoint
	conn net.Conn
	fc   *FrameConn
}

// Placement records where one map attempt was dispatched — the
// speculation anti-affinity and cache-affinity tests read these.
type Placement struct {
	Task    int
	Attempt int
	Addr    string
}

// PoolStats are the coordinator-side byte counters the cluster
// experiment records.
type PoolStats struct {
	// ConnIngressBytes / ConnEgressBytes count every byte the
	// coordinator read from / wrote to worker connections.
	ConnIngressBytes int64
	ConnEgressBytes  int64
	// ShuffleIngressBytes counts the run payload bytes that reached the
	// coordinator — the shuffle's share of ConnIngressBytes.
	ShuffleIngressBytes int64
}

// Pool leases worker connections to concurrent map attempts.
type Pool struct {
	spec JobSpec

	free chan *workerConn
	dead chan struct{} // closed when every worker is permanently lost

	mu         sync.Mutex
	closed     bool
	live       int
	conns      map[*workerConn]struct{}
	lastEp     map[int]Endpoint                       // task → endpoint of the latest dispatched attempt
	epSegs     map[Endpoint]map[mapreduce.Digest]bool // segments acknowledged cached per endpoint
	placements []Placement
	procs      map[string]int // worker addr → GOMAXPROCS, from map-done

	connIn    atomic.Int64
	connOut   atomic.Int64
	shuffleIn atomic.Int64

	wg sync.WaitGroup // background redials
}

// reconnect backoff schedule for retired workers.
const (
	redialAttempts = 8
	redialBase     = 2 * time.Millisecond
	redialMax      = 200 * time.Millisecond
)

// NewPool connects to every endpoint and performs the hello exchange.
// On any failure it closes what it opened and returns the error. The
// pool borrows the endpoints — several pools (one per job spec) can
// share one set of workers — so the caller closes the endpoints after
// the last pool is done with them.
func NewPool(spec JobSpec, endpoints []Endpoint) (*Pool, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("cluster: pool needs at least one worker endpoint")
	}
	p := &Pool{
		spec:   spec,
		free:   make(chan *workerConn, len(endpoints)),
		dead:   make(chan struct{}),
		conns:  map[*workerConn]struct{}{},
		lastEp: map[int]Endpoint{},
		epSegs: map[Endpoint]map[mapreduce.Digest]bool{},
		procs:  map[string]int{},
		live:   len(endpoints),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ep := range endpoints {
		w, err := p.connect(ctx, ep)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.free <- w
	}
	return p, nil
}

// countingConn tallies raw socket bytes into the pool's counters.
type countingConn struct {
	net.Conn
	p *Pool
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.p.connIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.connOut.Add(int64(n))
	return n, err
}

// connect opens and handshakes one worker connection, registering it
// for Close.
func (p *Pool) connect(ctx context.Context, ep Endpoint) (*workerConn, error) {
	raw, err := ep.Connect(ctx)
	if err != nil {
		return nil, fmt.Errorf("cluster: connecting worker: %w", err)
	}
	conn := net.Conn(&countingConn{Conn: raw, p: p})
	w := &workerConn{ep: ep, conn: conn, fc: NewFrameConn(conn)}
	if err := w.fc.DialHello(); err != nil {
		conn.Close()
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return nil, errors.New("cluster: pool closed")
	}
	p.conns[w] = struct{}{}
	p.mu.Unlock()
	return w, nil
}

// acquire leases a worker connection for an attempt of task, preferring
// (a) for a retry or speculative attempt, a different worker than the
// task's previous attempt — so it lands on another machine — and (b) a
// worker that already caches the segment digest. A first attempt has no
// previous one to avoid: the task's last worker may be a past job's,
// which is the one caching the segment. It drains whatever is free
// right now and scores it; when nothing is free it blocks on the next
// lease regardless of preference (liveness beats placement).
func (p *Pool) acquire(ctx context.Context, task, attempt int, digest mapreduce.Digest) (*workerConn, error) {
	var cands []*workerConn
drain:
	for {
		select {
		case w := <-p.free:
			cands = append(cands, w)
		default:
			break drain
		}
	}
	if len(cands) == 0 {
		select {
		case w := <-p.free:
			cands = append(cands, w)
		case <-p.dead:
			return nil, errors.New("cluster: all workers permanently lost")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.mu.Lock()
	last := p.lastEp[task]
	best, bestScore := 0, -1
	for i, w := range cands {
		score := 0
		if attempt > 0 && last != nil && w.ep != last {
			score += 2 // anti-affinity to the previous attempt's worker
		}
		if p.epSegs[w.ep][digest] {
			score++ // cache affinity: the segment is already resident
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	w := cands[best]
	p.lastEp[task] = w.ep
	p.placements = append(p.placements, Placement{Task: task, Attempt: attempt, Addr: w.ep.Addr()})
	p.mu.Unlock()
	for i, c := range cands {
		if i != best {
			p.release(c)
		}
	}
	return w, nil
}

// release returns a healthy lease to the pool.
func (p *Pool) release(w *workerConn) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		w.conn.Close()
		return
	}
	p.free <- w
}

// retire kills a lease and redials its endpoint in the background with
// capped backoff. A worker that cannot be reached after the redial
// budget is written off; when the last one goes, acquire fails fast
// instead of blocking forever.
func (p *Pool) retire(w *workerConn) {
	w.conn.Close()
	p.mu.Lock()
	delete(p.conns, w)
	// The worker (re)starting means its segment cache may be gone;
	// forget what we believed it held so the next assignment ships the
	// payload rather than a digest the worker cannot resolve.
	delete(p.epSegs, w.ep)
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.wg.Done()
		delay := redialBase
		for i := 0; i < redialAttempts; i++ {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			nw, err := p.connect(ctx, w.ep)
			cancel()
			if err == nil {
				p.release(nw)
				return
			}
			time.Sleep(delay)
			delay = min(delay*2, redialMax)
		}
		p.mu.Lock()
		p.live--
		lost := p.live == 0 && !p.closed
		p.mu.Unlock()
		if lost {
			close(p.dead)
		}
	}()
}

// Close tears the pool down: closes every connection (leased ones
// included — in-flight RunMap calls fail fast) and waits for background
// redials to stop. The endpoints stay open for other pools; the caller
// closes them when done.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for w := range p.conns {
		w.conn.Close()
	}
	p.conns = map[*workerConn]struct{}{}
	p.mu.Unlock()
	p.wg.Wait()
	// Drain leases parked in free (their conns are already closed).
	for {
		select {
		case <-p.free:
			continue
		default:
		}
		break
	}
	return nil
}

// Stats returns the pool's byte counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		ConnIngressBytes:    p.connIn.Load(),
		ConnEgressBytes:     p.connOut.Load(),
		ShuffleIngressBytes: p.shuffleIn.Load(),
	}
}

// WorkerProcs reports each worker's GOMAXPROCS as observed from its
// map-done replies, keyed by address.
func (p *Pool) WorkerProcs() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.procs))
	for k, v := range p.procs {
		out[k] = v
	}
	return out
}

// wireDigest is the segment's address on the wire: its ID chained with
// its content digest, both lanes (workers cache segments by it and
// answer need-segment with it). A forged segment that collides in one
// lane still differs in the other, so it is never served in another's
// place.
func wireDigest(seg *mapreduce.Segment) mapreduce.Digest {
	return (mapreduce.Digest{uint64(seg.ID)}).Chain(seg.Digest())
}

// markCached records that ep acknowledged an attempt over digest, so
// future assignments can go digest-only.
func (p *Pool) markCached(ep Endpoint, digest mapreduce.Digest, procs int) {
	p.mu.Lock()
	m := p.epSegs[ep]
	if m == nil {
		m = map[mapreduce.Digest]bool{}
		p.epSegs[ep] = m
	}
	m[digest] = true
	if procs > 0 {
		p.procs[ep.Addr()] = procs
	}
	p.mu.Unlock()
}

// RunMap implements mapreduce.RemoteMapper: execute one map attempt on
// some worker. Safe for concurrent calls; each call holds one lease. The
// attempt's faults ride in the assignment for the worker to fire, and
// the pool fires the run-recv fault as the runs arrive.
func (p *Pool) RunMap(ctx context.Context, task, attempt int, seg *mapreduce.Segment,
	faults mapreduce.AttemptFaults) (*mapreduce.MapOutput, error) {
	digest := wireDigest(seg)
	w, err := p.acquire(ctx, task, attempt, digest)
	if err != nil {
		return nil, err
	}
	// ctx cancellation unblocks the socket read by closing the conn.
	stop := context.AfterFunc(ctx, func() { w.conn.Close() })
	defer stop()
	fail := func(err error) (*mapreduce.MapOutput, error) {
		p.retire(w)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	p.mu.Lock()
	hasPayload := !p.epSegs[w.ep][digest]
	p.mu.Unlock()
	sendAssign := func(withPayload bool) error {
		a := &assignment{
			spec: p.spec, task: task, attempt: attempt, faults: faults,
			segID: seg.ID, segDigest: digest,
		}
		if withPayload {
			a.seg = seg
		}
		return w.fc.Write(FrameAssign, encodeAssign(a))
	}
	if err := sendAssign(hasPayload); err != nil {
		return fail(fmt.Errorf("cluster: sending assignment (task %d attempt %d): %w", task, attempt, err))
	}
	out := &mapreduce.MapOutput{}
	resent := false
	for {
		f, err := w.fc.Next()
		if err != nil {
			return fail(fmt.Errorf("cluster: worker stream (task %d attempt %d): %w", task, attempt, err))
		}
		switch f.Type {
		case FrameRun:
			p.shuffleIn.Add(int64(len(f.Payload)))
			r, err := decodeRun(f.Payload)
			if err != nil {
				return fail(err)
			}
			if r.Task != task || r.Attempt != attempt {
				return fail(fmt.Errorf("%w: run for task %d attempt %d on stream for task %d attempt %d",
					ErrFrame, r.Task, r.Attempt, task, attempt))
			}
			out.Runs = append(out.Runs, r)
			// A kill or error here drops the connection mid-stream.
			if err := faults.Fire(ctx, mapreduce.PointRunRecv, int64(len(out.Runs)-1)); err != nil {
				return fail(fmt.Errorf("cluster: dropping the connection (task %d attempt %d): %w", task, attempt, err))
			}
		case FrameSpans:
			spans, err := decodeSpans(f.Payload)
			if err != nil {
				return fail(err)
			}
			out.Spans = spans
		case FrameMapDone:
			m, err := decodeMapDone(f.Payload)
			if err != nil {
				return fail(err)
			}
			out.Emitted = m.emitted
			out.Duration = m.duration
			out.LogicalOutBytes = m.logical
			if ctx.Err() != nil {
				// The AfterFunc may have closed the conn under us.
				p.retire(w)
				return nil, ctx.Err()
			}
			p.markCached(w.ep, digest, m.procs)
			p.release(w)
			return out, nil
		case FrameError:
			msg, derr := decodeError(f.Payload)
			if derr != nil {
				return fail(derr)
			}
			if isNeedSegment(msg) && !hasPayload && !resent {
				// The worker's content cache lost the segment (restart,
				// eviction): re-ship the payload once on the same conn.
				resent, hasPayload = true, true
				if err := sendAssign(true); err != nil {
					return fail(fmt.Errorf("cluster: re-sending assignment with payload (task %d attempt %d): %w", task, attempt, err))
				}
				continue
			}
			// The worker reported a clean attempt failure; the conn is
			// still synchronized and reusable.
			p.release(w)
			return nil, fmt.Errorf("cluster: worker attempt failed (task %d attempt %d): %s", task, attempt, msg)
		default:
			return fail(fmt.Errorf("%w: unexpected frame type %d in attempt stream", ErrFrame, f.Type))
		}
	}
}
