package main

import (
	"fmt"
	"net"
	"os"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// Kinds of the spans the benchmark records around its own calls into
// the program. The program's spans keep the kinds internal/obs gives
// them; these sit beside them in the same trace.
const (
	kindBenchLoad       = "bench_load"        // mapreduce.ReadSegments of one corpus
	kindBenchAddDataset = "bench_add_dataset" // Server.AddDataset
	kindBenchAppend     = "bench_append"      // Server.AppendSegment
	kindBenchJob        = "bench_job"         // one job, submit to digest in hand
)

// engineConf is the configuration a user gets without setting an
// engine flag: symple and sympled both default to four reducers.
func engineConf(trace *obs.Trace) mapreduce.Config {
	return mapreduce.Config{NumReducers: 4, Trace: trace}
}

// tally counts the jobs a run attempted, priming and warm-up jobs
// included, and how many of them failed. A failed job does not stop the
// run: the run goes on, ends with failed > 0 in its result line and
// exits non-zero.
type tally struct{ attempted, failed int }

// job counts one job; err says why it failed, nil if it did not.
func (t *tally) job(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 { // a broken build fails every job the same way
		fmt.Fprintln(os.Stderr, "benchmark: job failed:", err)
	}
}

// counts is the work one job reports through the program's public
// results. Fields a path has no public source for stay zero.
type counts struct {
	shuffleBytes, shuffleLogical, mapAttempts, summaries, groups int64
	cacheHits, mappedSegments                                    int64
}

func (c *counts) add(d counts) {
	c.shuffleBytes += d.shuffleBytes
	c.shuffleLogical += d.shuffleLogical
	c.mapAttempts += d.mapAttempts
	c.summaries += d.summaries
	c.groups += d.groups
	c.cacheHits += d.cacheHits
	c.mappedSegments += d.mappedSegments
}

// corpora is a workload's input as loaded from disk, with the query
// behind each class.
type corpora struct {
	specs map[string]*queries.Spec        // by class
	base  map[string][]*mapreduce.Segment // by dataset
	fresh map[string]*mapreduce.Segment   // by dataset, serve-append only
}

// load reads the workload's corpora the way a user's job would: with
// mapreduce.ReadSegments over the directories the generator wrote.
func load(w *workload, in *inputs, bt *obs.Trace) (*corpora, error) {
	c := &corpora{specs: map[string]*queries.Spec{},
		base: map[string][]*mapreduce.Segment{}, fresh: map[string]*mapreduce.Segment{}}
	for _, class := range w.classes {
		sp, err := spec(class)
		if err != nil {
			return nil, err
		}
		c.specs[class] = sp
		if c.base[sp.Dataset] != nil {
			continue
		}
		span := bt.Start(kindBenchLoad, sp.Dataset)
		segs, err := mapreduce.ReadSegments(baseDir(in.Dir, sp.Dataset))
		span.End()
		if err != nil {
			return nil, err
		}
		c.base[sp.Dataset] = segs
		if w.kind == serveAppend {
			fresh, err := mapreduce.ReadSegments(freshDir(in.Dir, sp.Dataset))
			if err != nil {
				return nil, err
			}
			c.fresh[sp.Dataset] = fresh[0]
		}
	}
	return c, nil
}

// path is one entry point of the program, readied for timing. Every
// job it runs is checked against the sequential reference digest (the
// paper's exactness claim) and, on the service, against the provenance
// the workload is defined by; an error or a mismatch is a failed job in
// the tally.
type path interface {
	// prepare does the part of a class's next job that is not timed.
	prepare(class string)
	// run does the timed part: from submission to digest in hand.
	run(class string) counts
	close()
}

// open readies the workload's path over loaded corpora: builds it,
// primes every cache a user's repeated job would find warm, and runs
// one warm-up job per class. trace, when set, is attached through the
// program's public Config.Trace; bt takes the benchmark's own spans.
func open(w *workload, in *inputs, corp *corpora, trace, bt *obs.Trace, t *tally) (path, error) {
	var p path
	if w.kind == batchPath {
		p = &batch{corp: corp, in: in, trace: trace, tally: t}
	} else {
		s, err := openService(w, in, corp, trace, bt, t)
		if err != nil {
			return nil, err
		}
		p = s
	}
	for _, class := range w.classes {
		p.prepare(class)
		p.run(class)
	}
	return p, nil
}

// batch is the in-process path: Spec.Symple over the loaded segments.
type batch struct {
	corp  *corpora
	in    *inputs
	trace *obs.Trace
	tally *tally
}

func (b *batch) prepare(string) {}
func (b *batch) close()         {}

func (b *batch) run(class string) counts {
	sp := b.corp.specs[class]
	r, err := sp.Symple(b.corp.base[sp.Dataset], engineConf(b.trace))
	if err == nil && r.Digest != b.in.Want[class] {
		err = fmt.Errorf("%s: digest %016x, sequential %016x", class, r.Digest, b.in.Want[class])
	}
	b.tally.job(err)
	if err != nil {
		return counts{}
	}
	return counts{
		shuffleBytes:   r.Metrics.ShuffleBytes,
		shuffleLogical: r.Metrics.ShuffleLogicalBytes,
		mapAttempts:    r.Metrics.MapAttempts,
		summaries:      int64(r.Sym.Summaries),
		groups:         int64(r.NumResults),
	}
}

// service is the query-service path: a serve.Server on loopback and
// one client connection, the way sympled -serve and symple submit run.
type service struct {
	appendMode bool
	corp       *corpora
	in         *inputs
	bt         *obs.Trace
	tally      *tally

	srv      *serve.Server
	served   chan error
	client   *serve.Client
	variants int                           // variants of the fresh segments handed out
	next     map[string]*mapreduce.Segment // by class: the segment its next job appends
}

func openService(w *workload, in *inputs, corp *corpora, trace, bt *obs.Trace, t *tally) (*service, error) {
	s := &service{
		appendMode: w.kind == serveAppend,
		corp:       corp, in: in, bt: bt, tally: t,
		srv:    serve.New(serve.Config{Engine: engineConf(nil), Trace: trace}),
		served: make(chan error, 1),
		next:   map[string]*mapreduce.Segment{},
	}
	for dataset := range corp.base {
		s.addDataset(dataset)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	if s.client, err = serve.Dial(ln.Addr().String()); err != nil {
		s.close()
		return nil, err
	}
	// One cold submission per class fills the summary cache for the
	// base segments; nothing after it maps a base segment again.
	for _, class := range w.classes {
		s.submit(class, in.Want[class], s.segments(class), 0)
	}
	return s, nil
}

func (s *service) addDataset(dataset string) {
	span := s.bt.Start(kindBenchAddDataset, dataset)
	s.srv.AddDataset(dataset, s.corp.base[dataset])
	span.End()
}

func (s *service) close() {
	if s.client != nil {
		s.client.Close()
	}
	s.srv.Close()
	<-s.served
}

// prepare, in append mode, resets the class's dataset to the base
// segments (content addressing keeps their summaries cached, so cost
// and memory stay level from job to job) and makes the variant of the
// fresh segment the job will append.
func (s *service) prepare(class string) {
	if !s.appendMode {
		return
	}
	dataset := s.corp.specs[class].Dataset
	s.addDataset(dataset)
	s.variants++
	s.next[class] = variant(s.corp.fresh[dataset], s.variants)
}

// segments is the number of base segments behind a class.
func (s *service) segments(class string) int {
	return len(s.corp.base[s.corp.specs[class].Dataset])
}

func (s *service) run(class string) counts {
	if !s.appendMode {
		return s.submit(class, s.in.Want[class], 0, s.segments(class))
	}
	dataset := s.corp.specs[class].Dataset
	span := s.bt.Start(kindBenchAppend, dataset)
	err := s.srv.AppendSegment(dataset, s.next[class])
	span.End()
	if err != nil {
		s.tally.job(fmt.Errorf("%s: append: %w", class, err))
		return counts{}
	}
	return s.submit(class, s.in.WantAppended[class], 1, s.segments(class))
}

// submit sends one job and waits for its result, which must carry the
// reference digest and exactly the stated provenance.
func (s *service) submit(class string, want uint64, mapped, hits int) counts {
	res, err := s.job(class)
	if err == nil && res.Digest != want {
		err = fmt.Errorf("%s: digest %016x, sequential %016x", class, res.Digest, want)
	}
	if err == nil && (res.MappedSegments != mapped || res.CacheHits != hits) {
		err = fmt.Errorf("%s: %d segments mapped and %d cached, want %d and %d",
			class, res.MappedSegments, res.CacheHits, mapped, hits)
	}
	s.tally.job(err)
	if err != nil {
		return counts{}
	}
	return counts{
		groups:         int64(res.NumResults),
		cacheHits:      int64(res.CacheHits),
		mappedSegments: int64(res.MappedSegments),
	}
}

func (s *service) job(class string) (cluster.JobResult, error) {
	j, err := s.client.Submit(cluster.JobSubmit{
		Tenant: "bench", Query: class, Dataset: s.corp.specs[class].Dataset})
	if err != nil {
		return cluster.JobResult{}, err
	}
	return j.Wait()
}
