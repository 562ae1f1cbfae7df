package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
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
// with the engine, exactly as in process.
//
// With WithW2W the pool also implements mapreduce.RemoteReducer and
// takes itself off the data path: partitions get static owners
// (p mod workers), assignments carry the ownership tables so map
// workers push runs straight to their owners, and RunReduce asks the
// owning worker to merge in place — only byte-counted receipts flow up
// during maps and only combined group summaries flow back at reduce.
// Segments are content-addressed: once a worker has acknowledged an
// attempt over some segment, later attempts ship only the digest, and
// a worker whose cache was lost answers need-segment to get one
// payload re-ship.

// Endpoint is one worker the pool can (re)connect to.
type Endpoint interface {
	// Connect establishes a fresh transport connection to the worker.
	Connect(ctx context.Context) (net.Conn, error)
	// Addr is the worker's listen address — the identity peers dial in
	// the w2w topology.
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
	fr   *frameReader
	fw   *frameWriter
}

// ownerConn is the dedicated reduce connection to one partition owner,
// dialed lazily; mu serializes reduce conversations when one worker
// owns several partitions.
type ownerConn struct {
	mu sync.Mutex
	w  *workerConn
}

// Placement records where one map attempt was dispatched — the
// speculation anti-affinity and cache-affinity tests read these.
type Placement struct {
	Task    int
	Attempt int
	Addr    string
}

// PoolStats are the coordinator-side byte counters the benchmark
// methodology records per topology.
type PoolStats struct {
	// ConnIngressBytes / ConnEgressBytes count every byte the
	// coordinator read from / wrote to worker connections.
	ConnIngressBytes int64
	ConnEgressBytes  int64
	// ShuffleIngressBytes counts the shuffle-plane payload bytes that
	// reached the coordinator: run frames (via-coordinator), receipts
	// and reduce replies (w2w). This is the number the w2w topology
	// collapses.
	ShuffleIngressBytes int64
}

// Pool leases worker connections to concurrent map attempts.
type Pool struct {
	spec JobSpec

	w2w       bool
	jobID     uint64
	endpoints []Endpoint
	epIndex   map[Endpoint]int
	owners    []int
	addrs     []string

	free chan *workerConn
	dead chan struct{} // closed when every worker is permanently lost

	mu         sync.Mutex
	closed     bool
	live       int
	conns      map[*workerConn]struct{}
	lastEp     map[int]Endpoint             // task → endpoint of the latest dispatched attempt
	epSegs     map[Endpoint]map[uint64]bool // segments acknowledged cached per endpoint
	segs       map[int]*mapreduce.Segment   // task → segment, retained for w2w refills
	placements []Placement
	procs      map[string]int // worker addr → GOMAXPROCS, from map-done

	rmu    sync.Mutex
	rconns map[int]*ownerConn

	connIn    atomic.Int64
	connOut   atomic.Int64
	shuffleIn atomic.Int64

	wg sync.WaitGroup // background redials
}

// PoolOption configures NewPool.
type PoolOption func(*Pool)

// WithW2W switches the pool to the worker-to-worker shuffle topology.
// The pool then also implements mapreduce.RemoteReducer; wire it into
// both Config.RemoteMap and Config.RemoteReduce.
func WithW2W() PoolOption {
	return func(p *Pool) { p.w2w = true }
}

// jobSeq disambiguates pools within one coordinator process; combined
// with the pid it keys per-job worker state across coordinators
// sharing workers.
var jobSeq atomic.Uint64

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
func NewPool(spec JobSpec, endpoints []Endpoint, opts ...PoolOption) (*Pool, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("cluster: pool needs at least one worker endpoint")
	}
	p := &Pool{
		spec:      spec,
		jobID:     uint64(os.Getpid())<<20 ^ jobSeq.Add(1),
		endpoints: endpoints,
		epIndex:   make(map[Endpoint]int, len(endpoints)),
		free:      make(chan *workerConn, len(endpoints)),
		dead:      make(chan struct{}),
		conns:     map[*workerConn]struct{}{},
		lastEp:    map[int]Endpoint{},
		epSegs:    map[Endpoint]map[uint64]bool{},
		segs:      map[int]*mapreduce.Segment{},
		procs:     map[string]int{},
		rconns:    map[int]*ownerConn{},
		live:      len(endpoints),
	}
	for i, ep := range endpoints {
		p.epIndex[ep] = i
		p.addrs = append(p.addrs, ep.Addr())
	}
	for _, o := range opts {
		o(p)
	}
	if p.w2w {
		// Static partition ownership: p mod workers. Deterministic, so
		// every assignment of the job carries the same tables and a
		// retried attempt pushes to the same owners.
		p.owners = make([]int, spec.NumReducers)
		for i := range p.owners {
			p.owners[i] = i % len(endpoints)
		}
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
	w := &workerConn{ep: ep, conn: conn, fr: newFrameReader(conn), fw: newFrameWriter(conn)}
	if err := w.fw.write(FrameHello, encodeHello()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello send: %w", err)
	}
	f, err := w.fr.next()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: hello reply: %w", err)
	}
	if f.Type == FrameError {
		msg, _ := decodeError(f.Payload)
		conn.Close()
		return nil, fmt.Errorf("cluster: worker rejected hello: %s", msg)
	}
	if f.Type != FrameHello {
		conn.Close()
		return nil, fmt.Errorf("%w: expected hello reply, got frame type %d", ErrFrame, f.Type)
	}
	if _, err := DecodeHello(f.Payload); err != nil {
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
// (a) a different worker than the task's previous attempt — so
// speculation and retries land on another machine — and (b) a worker
// that already caches the segment digest. It drains whatever is free
// right now and scores it; when nothing is free it blocks on the next
// lease regardless of preference (liveness beats placement).
func (p *Pool) acquire(ctx context.Context, task, attempt int, digest uint64) (*workerConn, error) {
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
		if last != nil && w.ep != last {
			score += 2 // anti-affinity to the previous attempt's worker
		}
		if digest != 0 && p.epSegs[w.ep][digest] {
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

// Close tears the pool down: broadcasts job-done so workers drop this
// job's shuffle state, closes every connection (leased ones included —
// in-flight RunMap calls fail fast), and waits for background redials
// to stop. The endpoints stay open for other pools; the caller closes
// them when done.
func (p *Pool) Close() error {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.mu.Unlock()
	if !alreadyClosed && p.w2w {
		p.broadcastJobDone()
	}
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

// broadcastJobDone tells every reachable worker the job is over —
// drop buffered runs, close peer connections — before the sockets go
// away. Best effort: a worker we cannot reach has nothing durable to
// leak anyway.
func (p *Pool) broadcastJobDone() {
	payload := encodeJobDone(p.jobID)
	p.rmu.Lock()
	for _, oc := range p.rconns {
		oc.mu.Lock()
		if oc.w != nil {
			_ = oc.w.fw.write(FrameJobDone, payload)
		}
		oc.mu.Unlock()
	}
	p.rmu.Unlock()
	var drained []*workerConn
drain:
	for {
		select {
		case w := <-p.free:
			drained = append(drained, w)
		default:
			break drain
		}
	}
	for _, w := range drained {
		_ = w.fw.write(FrameJobDone, payload)
		p.free <- w
	}
}

// Stats returns the pool's byte counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		ConnIngressBytes:    p.connIn.Load(),
		ConnEgressBytes:     p.connOut.Load(),
		ShuffleIngressBytes: p.shuffleIn.Load(),
	}
}

// Placements returns where every map attempt was dispatched, in
// dispatch order.
func (p *Pool) Placements() []Placement {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Placement(nil), p.placements...)
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

// wireDigest is the segment's address on the wire: 64 bits drawn from
// its ID and content digest (workers cache segments by it and answer
// need_segment with it). Zero is reserved for "no digest".
func wireDigest(seg *mapreduce.Segment) uint64 {
	if d := (mapreduce.Digest{uint64(seg.ID)}).Chain(seg.Digest())[0]; d != 0 {
		return d
	}
	return 1
}

// markCached records that ep acknowledged an attempt over digest, so
// future assignments can go digest-only.
func (p *Pool) markCached(ep Endpoint, digest uint64, procs int) {
	p.mu.Lock()
	if digest != 0 {
		m := p.epSegs[ep]
		if m == nil {
			m = map[uint64]bool{}
			p.epSegs[ep] = m
		}
		m[digest] = true
	}
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
	if p.w2w {
		// Retain the segment: a dead reduce owner is refilled by
		// re-running this task's committed attempt.
		p.mu.Lock()
		p.segs[task] = seg
		p.mu.Unlock()
	}
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
	hasPayload := digest == 0 || !p.epSegs[w.ep][digest]
	p.mu.Unlock()
	sendAssign := func(withPayload bool) error {
		a := &assignment{
			spec: p.spec, task: task, attempt: attempt, faults: faults,
			segID: seg.ID, segDigest: digest, refillPart: -1,
		}
		if withPayload {
			a.seg = seg
		}
		if p.w2w {
			a.w2w = true
			a.jobID = p.jobID
			a.selfID = p.epIndex[w.ep]
			a.owners = p.owners
			a.addrs = p.addrs
		}
		return w.fw.write(FrameAssign, encodeAssign(a))
	}
	if err := sendAssign(hasPayload); err != nil {
		return fail(fmt.Errorf("cluster: sending assignment (task %d attempt %d): %w", task, attempt, err))
	}
	out := &mapreduce.MapOutput{}
	resent := false
	for {
		f, err := w.fr.next()
		if err != nil {
			return fail(fmt.Errorf("cluster: worker stream (task %d attempt %d): %w", task, attempt, err))
		}
		switch f.Type {
		case FrameRun, FrameRunReceipt:
			// Run payloads come via the coordinator, receipts under w2w.
			decode := decodeRun
			if p.w2w {
				decode = decodeRunReceipt
			}
			if (f.Type == FrameRunReceipt) != p.w2w {
				return fail(fmt.Errorf("%w: frame type %d on a w2w=%v attempt stream", ErrFrame, f.Type, p.w2w))
			}
			p.shuffleIn.Add(int64(len(f.Payload)))
			r, err := decode(f.Payload)
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
			out.Records = m.records
			out.InputBytes = m.inputBytes
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

// RunReduce implements mapreduce.RemoteReducer: run one reduce attempt
// for a partition on its owning worker, its faults in the request. If
// the owner reports committed runs it never received (it restarted, or
// an injected kill lost its state), the pool refills them — re-running
// each missing committed attempt over its retained segment, pushing only
// this partition — and asks again; the owner fires the faults only once
// it has every run, so at most once per attempt. One refill round per
// attempt; the engine's retry budget handles the rest.
func (p *Pool) RunReduce(ctx context.Context, part, attempt int, commits []mapreduce.Run,
	faults mapreduce.AttemptFaults) (*mapreduce.ReduceOutput, error) {
	if !p.w2w {
		return nil, errors.New("cluster: RunReduce requires the worker-to-worker topology (WithW2W)")
	}
	if part < 0 || part >= len(p.owners) {
		return nil, fmt.Errorf("cluster: reduce for partition %d outside %d partitions", part, len(p.owners))
	}
	owner := p.owners[part]
	reqCommits := make([]taskAttempt, len(commits))
	for i, c := range commits {
		reqCommits[i] = taskAttempt{task: c.Task, attempt: c.Attempt}
	}
	refilled := false
	for {
		out, missing, err := p.reduceOnce(ctx, owner, part, reqCommits, faults)
		if err != nil {
			return nil, err
		}
		if len(missing) == 0 {
			out.Worker = owner
			return out, nil
		}
		if refilled {
			return nil, fmt.Errorf("cluster: partition %d owner still missing %d committed runs after refill", part, len(missing))
		}
		if err := p.refill(ctx, part, missing); err != nil {
			return nil, fmt.Errorf("cluster: refilling partition %d: %w", part, err)
		}
		refilled = true
	}
}

// reduceConn returns the lazily dialed, locked reduce connection to an
// owner; the caller must unlock oc.mu.
func (p *Pool) reduceConn(ctx context.Context, owner int) (*ownerConn, error) {
	p.rmu.Lock()
	oc, ok := p.rconns[owner]
	if !ok {
		oc = &ownerConn{}
		p.rconns[owner] = oc
	}
	p.rmu.Unlock()
	oc.mu.Lock()
	if oc.w == nil {
		w, err := p.connect(ctx, p.endpoints[owner])
		if err != nil {
			oc.mu.Unlock()
			return nil, err
		}
		oc.w = w
	}
	return oc, nil
}

// dropOwnerConn kills a broken reduce connection; the next attempt
// redials. Caller holds oc.mu.
func (p *Pool) dropOwnerConn(oc *ownerConn) {
	if oc.w == nil {
		return
	}
	oc.w.conn.Close()
	p.mu.Lock()
	delete(p.conns, oc.w)
	p.mu.Unlock()
	oc.w = nil
}

// reduceOnce runs one reduce conversation with the owner.
func (p *Pool) reduceOnce(ctx context.Context, owner, part int, commits []taskAttempt,
	faults mapreduce.AttemptFaults) (*mapreduce.ReduceOutput, []taskAttempt, error) {
	oc, err := p.reduceConn(ctx, owner)
	if err != nil {
		return nil, nil, err
	}
	defer oc.mu.Unlock()
	w := oc.w
	stop := context.AfterFunc(ctx, func() { w.conn.Close() })
	defer stop()
	fail := func(err error) (*mapreduce.ReduceOutput, []taskAttempt, error) {
		p.dropOwnerConn(oc)
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	req := &reduceReq{jobID: p.jobID, spec: p.spec, part: part, faults: faults, commits: commits}
	if err := w.fw.write(FrameReduce, encodeReduce(req)); err != nil {
		return fail(fmt.Errorf("cluster: sending reduce request (part %d): %w", part, err))
	}
	out := &mapreduce.ReduceOutput{}
	for {
		f, err := w.fr.next()
		if err != nil {
			return fail(fmt.Errorf("cluster: reduce stream (part %d): %w", part, err))
		}
		switch f.Type {
		case FrameSpans:
			spans, err := decodeSpans(f.Payload)
			if err != nil {
				return fail(err)
			}
			out.Spans = spans
		case FrameReduceDone:
			p.shuffleIn.Add(int64(len(f.Payload)))
			groups, missing, err := decodeReduceDone(f.Payload)
			if err != nil {
				return fail(err)
			}
			if ctx.Err() != nil {
				p.dropOwnerConn(oc)
				return nil, nil, ctx.Err()
			}
			if len(missing) > 0 {
				return nil, missing, nil
			}
			out.Groups = groups
			return out, nil, nil
		case FrameError:
			msg, derr := decodeError(f.Payload)
			if derr != nil {
				return fail(derr)
			}
			// Clean worker-side reduce failure; the conn stays usable.
			return nil, nil, fmt.Errorf("cluster: worker reduce failed (part %d): %s", part, msg)
		default:
			return fail(fmt.Errorf("%w: unexpected frame type %d in reduce stream", ErrFrame, f.Type))
		}
	}
}

// refill re-derives missing committed runs: each missing (task,
// attempt) is re-run over the task's retained segment on some free
// worker, pushing only the affected partition to its owner, with no
// receipts, no spans, and no faults — the original attempt already
// committed; this is recovery, not a new attempt.
func (p *Pool) refill(ctx context.Context, part int, missing []taskAttempt) error {
	for _, ta := range missing {
		p.mu.Lock()
		seg := p.segs[ta.task]
		p.mu.Unlock()
		if seg == nil {
			return fmt.Errorf("cluster: no retained segment for task %d", ta.task)
		}
		if err := p.refillOne(ctx, part, ta, seg); err != nil {
			return err
		}
	}
	return nil
}

func (p *Pool) refillOne(ctx context.Context, part int, ta taskAttempt, seg *mapreduce.Segment) error {
	digest := wireDigest(seg)
	w, err := p.acquire(ctx, ta.task, ta.attempt, digest)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { w.conn.Close() })
	defer stop()
	fail := func(err error) error {
		p.retire(w)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	a := &assignment{
		spec: p.spec, task: ta.task, attempt: ta.attempt,
		w2w: true, jobID: p.jobID, selfID: p.epIndex[w.ep],
		owners: p.owners, addrs: p.addrs, refillPart: part,
		segID: seg.ID, segDigest: digest, seg: seg,
	}
	if err := w.fw.write(FrameAssign, encodeAssign(a)); err != nil {
		return fail(fmt.Errorf("cluster: sending refill (task %d attempt %d part %d): %w", ta.task, ta.attempt, part, err))
	}
	for {
		f, err := w.fr.next()
		if err != nil {
			return fail(fmt.Errorf("cluster: refill stream (task %d attempt %d): %w", ta.task, ta.attempt, err))
		}
		switch f.Type {
		case FrameMapDone:
			if _, err := decodeMapDone(f.Payload); err != nil {
				return fail(err)
			}
			if ctx.Err() != nil {
				p.retire(w)
				return ctx.Err()
			}
			p.release(w)
			return nil
		case FrameError:
			msg, derr := decodeError(f.Payload)
			if derr != nil {
				return fail(derr)
			}
			p.release(w)
			return fmt.Errorf("cluster: refill failed (task %d attempt %d): %s", ta.task, ta.attempt, msg)
		default:
			return fail(fmt.Errorf("%w: unexpected frame type %d in refill stream", ErrFrame, f.Type))
		}
	}
}
