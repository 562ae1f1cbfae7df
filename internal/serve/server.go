package serve

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// Budget bounds admission; zero fields take defaults.
	Budget Budget
	// CacheBytes bounds the summary cache (default 256 MiB).
	CacheBytes int64
	// Engine is the mapreduce config cold runs execute under; Trace and
	// Registry are overridden per run.
	Engine mapreduce.Config
	// Trace, when set, receives the service's spans: one serve job root
	// per job (fold provenance attrs), a queue-wait child named by the
	// tenant, fold children, and each cold engine run nested as a
	// sub-job. Forked per job, so concurrent jobs share one span ID space.
	Trace *obs.Trace
	// Registry, when set, receives service metrics (Metric* names plus
	// per-tenant tenant.<name>.* instruments).
	Registry *obs.Registry
}

// Server hosts datasets and serves query jobs over the frame protocol.
type Server struct {
	cfg     Config
	admit   *admitter
	cache   *Cache
	reg     *obs.Registry
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	nextJob atomic.Uint64

	mu       sync.Mutex
	datasets map[string]*dataset
}

// dataset is one named, append-only segment sequence: its state now,
// with what a job needs of it worked out when it changes, not per job.
type dataset struct {
	mu sync.Mutex
	snapshot
}

// snapshot is a dataset at one moment.
type snapshot struct {
	segs    []*mapreduce.Segment
	chain   []mapreduce.Digest // chain[i] addresses the list segs[:i+1]
	bytes   int64              // payload of segs, the admission charge
	changed chan struct{}      // closed and replaced on the next append
}

// snap returns the current snapshot (shared slice prefixes; segments are
// immutable).
func (d *dataset) snap() snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, n := d.snapshot, len(d.segs)
	s.segs, s.chain = s.segs[:n:n], s.chain[:n:n]
	return s
}

// add appends seg, whose ID becomes its dataset position (the fold
// order). Digest reads resident state unless the segment is new to this
// process: registration pays for that pass, not a job. Caller holds d.mu.
func (d *dataset) add(seg *mapreduce.Segment) {
	var prev mapreduce.Digest
	if n := len(d.chain); n > 0 {
		prev = d.chain[n-1]
	}
	seg.ID = len(d.segs)
	d.segs = append(d.segs, seg)
	d.chain = append(d.chain, prev.Chain(seg.Digest()))
	d.bytes += seg.Bytes()
}

// New returns a server ready to Serve.
func New(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		admit:    newAdmitter(cfg.Budget),
		cache:    NewCache(cfg.CacheBytes, cfg.Registry),
		reg:      cfg.Registry,
		ctx:      ctx,
		cancel:   cancel,
		datasets: map[string]*dataset{},
	}
}

// AddDataset publishes segs under name, replacing any previous dataset.
// Segment IDs are rewritten to dataset positions (the fold order).
func (s *Server) AddDataset(name string, segs []*mapreduce.Segment) {
	d := &dataset{snapshot: snapshot{changed: make(chan struct{})}}
	for _, seg := range segs {
		d.add(seg)
	}
	s.mu.Lock()
	s.datasets[name] = d
	s.mu.Unlock()
}

// AppendSegment appends one segment to a dataset and wakes its tail
// jobs. The segment's ID is rewritten to its dataset position.
func (s *Server) AppendSegment(name string, seg *mapreduce.Segment) error {
	d := s.dataset(name)
	if d == nil {
		return fmt.Errorf("serve: unknown dataset %q", name)
	}
	seg.Digest() // the pass over the records, outside the lock
	d.mu.Lock()
	d.add(seg)
	close(d.changed)
	d.changed = make(chan struct{})
	d.mu.Unlock()
	return nil
}

func (s *Server) dataset(name string) *dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasets[name]
}

// FlushCache evicts the whole summary cache — the chaos harness's
// eviction-mid-fold fault (mapreduce.PointServeJob) and an operational
// escape hatch. In-flight folds are unaffected.
func (s *Server) FlushCache() { s.cache.Flush() }

// CacheStats snapshots the summary cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Close stops the server: listeners close, queued and running jobs
// cancel, and Serve returns once every connection has drained.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Serve accepts connections until Close (or ctx teardown via listener
// close). Every connection speaks the versioned frame protocol: one
// hello exchange, then job_submit/job_cancel frames in, job_accept/
// job_update/job_result frames out.
func (s *Server) Serve(ln net.Listener) error {
	stop := context.AfterFunc(s.ctx, func() { ln.Close() })
	defer stop()
	defer s.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	defer stop()
	fc := cluster.NewFrameConn(conn)
	if fc.AcceptHello() != nil {
		return
	}

	// Jobs are children of the connection context: a disconnect (read
	// error below) cancels every job the connection submitted, and the
	// WaitGroup keeps the conn goroutine alive until they settle — the
	// leak-check anchor for the disconnect path.
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	var jobs sync.WaitGroup
	defer jobs.Wait()
	var mu sync.Mutex
	active := map[uint64]context.CancelFunc{} // accepted jobs, for FrameJobCancel

	for {
		f, err := fc.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case cluster.FrameJobSubmit:
			sub, err := cluster.DecodeJobSubmit(f.Payload)
			if err != nil {
				return // unsynchronized stream
			}
			s.handleSubmit(ctx, fc, sub, &jobs, &mu, active)
		case cluster.FrameJobCancel:
			c, err := cluster.DecodeJobCancel(f.Payload)
			if err != nil {
				return
			}
			mu.Lock()
			if cancel := active[c.ID]; cancel != nil {
				cancel()
			}
			mu.Unlock()
		default:
			return
		}
	}
}

// handleSubmit admits one submit and, when accepted, launches the job
// goroutine. The accept frame is written before the goroutine starts,
// so a job's accept always precedes its updates and result.
func (s *Server) handleSubmit(ctx context.Context, fc *cluster.FrameConn, sub cluster.JobSubmit,
	jobs *sync.WaitGroup, mu *sync.Mutex, active map[uint64]context.CancelFunc) {
	s.reg.Counter(MetricJobsSubmitted).Inc()
	reject := func(reason string) {
		s.reg.Counter(MetricJobsRejected).Inc()
		if sub.Tenant != "" {
			s.reg.Counter("tenant." + sub.Tenant + ".rejected").Inc()
		}
		_ = fc.Write(cluster.FrameJobAccept, cluster.EncodeJobAccept(cluster.JobAccept{Reason: reason}))
	}
	if sub.Tenant == "" {
		reject("missing tenant")
		return
	}
	runner := Lookup(sub.Query)
	if runner == nil {
		reject("unknown query " + sub.Query)
		return
	}
	ds := s.dataset(sub.Dataset)
	if ds == nil {
		reject("unknown dataset " + sub.Dataset)
		return
	}
	p, err := s.admit.enqueue(sub.Tenant, ds.snap().bytes)
	if err != nil {
		reject(err.Error())
		return
	}
	id := s.nextJob.Add(1)
	jctx, jcancel := context.WithCancel(ctx)
	mu.Lock()
	active[id] = jcancel
	mu.Unlock()
	if err := fc.Write(cluster.FrameJobAccept, cluster.EncodeJobAccept(
		cluster.JobAccept{ID: id, OK: true, QueuePos: p.queuePos})); err != nil {
		jcancel()
	}
	s.reg.Counter("tenant." + sub.Tenant + ".jobs").Inc()
	jobs.Add(1)
	go func() {
		defer jobs.Done()
		defer jcancel()
		defer func() {
			mu.Lock()
			delete(active, id)
			mu.Unlock()
		}()
		s.runJob(jctx, fc, id, sub, runner, ds, p)
	}()
}

// foldState tracks one job's cumulative fold provenance.
type foldState struct {
	folded int // segments folded into the standing result
	cached int // of those, served from the summary cache
	prefix int // of those, as part of a cached prefix
	mapped int // of those, mapped fresh by this job
}

// runJob waits for admission, folds the dataset (incrementally, for
// tail jobs), and settles with a JobResult.
func (s *Server) runJob(ctx context.Context, fc *cluster.FrameConn, id uint64,
	sub cluster.JobSubmit, runner Runner, ds *dataset, p *pending) {
	jt := s.cfg.Trace.Fork()
	root := jt.StartJob("serve/" + sub.Query + "/" + sub.Dataset)
	st := &foldState{}
	settled := false
	settle := func(res Result, updates int, errMsg string) {
		if settled {
			return
		}
		settled = true
		root.Attr(obs.AttrSegments, int64(st.folded)).
			Attr(obs.AttrCachedSegments, int64(st.cached)).
			Attr(obs.AttrPrefixSegments, int64(st.prefix)).
			Attr(obs.AttrMappedSegments, int64(st.mapped))
		if errMsg != "" {
			root.Tag(obs.TagOutcome, errMsg)
		}
		root.End()
		switch errMsg {
		case "":
			s.reg.Counter(MetricJobsCompleted).Inc()
		case "cancelled":
			s.reg.Counter(MetricJobsCancelled).Inc()
		default:
			s.reg.Counter(MetricJobsFailed).Inc()
		}
		_ = fc.Write(cluster.FrameJobResult, cluster.EncodeJobResult(cluster.JobResult{
			ID: id, Err: errMsg, Digest: res.Digest, NumResults: res.NumResults,
			Segments: st.folded, CacheHits: st.cached, MappedSegments: st.mapped,
			Updates: updates,
		}))
	}

	// Admission wait, traced as a queue span under the job root, named by
	// the tenant (a tag map per span is what a warm job cannot afford).
	qs := jt.Start(obs.KindQueue, sub.Tenant)
	t0 := time.Now()
	select {
	case <-p.ready:
	case <-ctx.Done():
		if s.admit.cancel(p) {
			qs.Tag(obs.TagOutcome, "cancelled").End()
			settle(Result{}, 0, "cancelled")
			return
		}
		<-p.ready // granted concurrently with the cancel: own the budget
	}
	qs.End()
	defer s.admit.release(p)
	s.reg.Histogram(MetricQueueWaitNs).Observe(time.Since(t0).Nanoseconds())
	if ctx.Err() != nil {
		settle(Result{}, 0, "cancelled")
		return
	}

	sess, err := runner.NewSession()
	if err != nil {
		settle(Result{}, 0, err.Error())
		return
	}
	schema := runner.SchemaKey()

	snap := ds.snap()
	if err := s.foldSegments(ctx, jt, sess, schema, sub.Query, snap, st); err != nil {
		settle(Result{}, 0, jobErr(ctx, err))
		return
	}
	res, err := sess.Result()
	if err != nil {
		settle(Result{}, 0, err.Error())
		return
	}
	if !sub.Tail {
		settle(res, 0, "")
		return
	}

	// Tail mode: emit the standing result now, then refresh every
	// TailEvery appended segments until cancelled.
	every := sub.TailEvery
	if every < 1 {
		every = 1
	}
	updates := 0
	emit := func(r Result) {
		updates++
		s.reg.Counter(MetricTailUpdates).Inc()
		_ = fc.Write(cluster.FrameJobUpdate, cluster.EncodeJobUpdate(cluster.JobUpdate{
			ID: id, Seq: uint64(updates), Digest: r.Digest, NumResults: r.NumResults,
			Segments: st.folded, CacheHits: st.cached, MappedSegments: st.mapped,
		}))
	}
	emit(res)
	for {
		select {
		case <-ctx.Done():
			settle(res, updates, "cancelled")
			return
		case <-snap.changed:
		}
		if snap = ds.snap(); len(snap.segs)-st.folded < every {
			continue
		}
		if err := s.foldSegments(ctx, jt, sess, schema, sub.Query, snap, st); err != nil {
			settle(res, updates, jobErr(ctx, err))
			return
		}
		if res, err = sess.Result(); err != nil {
			settle(Result{}, updates, err.Error())
			return
		}
		emit(res)
	}
}

// jobErr classifies a fold error: a cancelled context settles the job
// as cancelled regardless of which layer surfaced it.
func jobErr(ctx context.Context, err error) string {
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		return "cancelled"
	}
	return err.Error()
}

// foldSegments brings the session from the st.folded segments it holds
// to all of snap, in dataset order. The longest cached prefix of snap's
// list beyond that is resumed from, not folded; of the remaining
// segments the cached ones decode straight from the summary cache and
// the rest run one map-only engine job (nested under the serve root as
// its own traced sub-job) whose task outputs are the segments' parts. A
// list some earlier job also began with is stored as a prefix on the way
// — this second sight is what says it will be asked for again.
func (s *Server) foldSegments(ctx context.Context, jt *obs.Trace, sess Session,
	schema, query string, snap snapshot, st *foldState) error {
	p, from, admit := s.cache.Lookup(schema, snap.chain, st.folded)
	if p != nil {
		sess.Resume(p)
		st.cached += from - st.folded
		st.prefix += from - st.folded
		st.folded = from
	}
	segs := snap.segs[from:]
	if len(segs) == 0 {
		return nil
	}
	parts := make([]*Part, len(segs)) // nil: not cached
	var missing []*mapreduce.Segment
	for i, seg := range segs {
		p, ok := s.cache.Get(schema, seg.Digest())
		if !ok {
			missing = append(missing, seg)
		}
		parts[i] = p
	}

	if len(missing) > 0 {
		// Cold segments: one engine run over exactly the uncached
		// segments. The run gets its own fork of the job trace, so its
		// map attempts nest under this serve job — the serve-cache
		// invariant can prove a warm job ran none.
		et := jt.Fork()
		mapFn, err := sess.Mapper(et)
		if err != nil {
			return err
		}
		// Map-only: a task's committed output is its segment's part.
		built := make([]*Part, len(missing))
		conf := s.cfg.Engine
		conf.Trace = et
		conf.Registry = s.reg
		job := &mapreduce.Job{Name: "serve-map/" + query, Map: mapFn, Conf: conf,
			Output: func(task int, pairs iter.Seq2[string, []byte]) error {
				built[task] = &Part{}
				for key, bundle := range pairs {
					built[task].Add(key, bundle)
				}
				return nil
			}}
		if _, err := job.RunContext(ctx, missing); err != nil {
			return err
		}
		for i, seg := range segs {
			if parts[i] == nil {
				parts[i], built = built[0], built[1:]
				s.cache.Put(schema, seg.Digest(), parts[i])
			}
		}
	}

	fs := jt.Start(obs.KindFold, query).Attr(obs.AttrSegments, int64(len(segs)))
	for i, p := range parts {
		if err := sess.FoldPart(p); err != nil {
			fs.Tag(obs.TagOutcome, "error").End()
			return err
		}
		if n := from + i + 1; n == admit {
			s.cache.PutPrefix(schema, snap.chain[n-1], sess.Freeze())
		}
	}
	fs.End()
	st.folded += len(segs)
	st.mapped += len(missing)
	st.cached += len(segs) - len(missing)
	return nil
}
