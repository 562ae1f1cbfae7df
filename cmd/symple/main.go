// Command symple runs one of the paper's 12 evaluation queries on a
// generated corpus under a chosen engine and reports results and metrics.
//
// Usage:
//
//	symple -query B1 -engine symple -records 200000 -segments 8
//	symple -query R3 -engine all -condensed
//	symple -query G1 -engine symple -workers 4   # SYMPLE maps on worker subprocesses
//
// With -workers N the SYMPLE engine executes its map attempts on N
// spawned sympled worker subprocesses over loopback TCP and reduces the
// runs they stream back in process; a worker that dies costs only its
// retried map attempts. The sequential and baseline engines (and the
// digest cross-check) stay in-process.
//
// The submit and tail verbs are clients of a serve-mode daemon
// (sympled -serve): submit runs one job against a hosted dataset and
// prints the result; tail subscribes and prints a refreshed result as
// the dataset grows.
//
//	symple submit -addr 127.0.0.1:7070 -query G1
//	symple tail -addr 127.0.0.1:7070 -query B2 -every 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("symple: ")
	if len(os.Args) > 1 && (os.Args[1] == "submit" || os.Args[1] == "tail") {
		clientMain(os.Args[1], os.Args[2:])
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the engine mode: it parses args, runs the chosen engines and
// writes the report to stdout. Every failure returns, so the deferred
// profile stop, trace flush and worker shutdown run on the failing
// paths too — the runs whose profile and trace are most wanted.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("symple", flag.ContinueOnError)
	var (
		queryID   = fs.String("query", "B1", "query ID (G1-G4, B1-B3, T1, R1-R4)")
		engine    = fs.String("engine", "all", "engine: sequential | baseline | symple | all")
		records   = fs.Int("records", 200000, "records in the generated corpus")
		segments  = fs.Int("segments", 8, "input segments (mapper count)")
		reducers  = fs.Int("reducers", 4, "reduce tasks")
		condensed = fs.Bool("condensed", false, "use the condensed RedShift variant (R1c-R4c)")
		input     = fs.String("input", "", "read segments from this directory (written by datagen) instead of generating")
		tracePath = fs.String("trace", "", "write structured JSONL task spans to this file and verify trace invariants")
		profile   = fs.String("profile", "", "write one CPU profile covering the whole invocation (every engine run, sequential included) to this file")
		workers   = fs.Int("workers", 0, "run SYMPLE maps on this many spawned worker subprocesses (0 = in-process)")
		workerBin = fs.String("worker-bin", "sympled", "worker binary: a path, or a name resolved next to this executable then on PATH")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *profile != "" {
		stop, err := obs.CPUProfile(*profile)
		if err != nil {
			return err
		}
		defer stop()
	}

	spec := queries.ByID(strings.ToUpper(*queryID))
	if spec == nil {
		var ids []string
		for _, s := range queries.All() {
			ids = append(ids, s.ID)
		}
		return fmt.Errorf("unknown query %q; available: %s", *queryID, strings.Join(ids, " "))
	}
	fmt.Fprintf(stdout, "%s — %s [%s, sym types: %s]\n",
		spec.ID, spec.Description, spec.Dataset, spec.SymTypesString())

	var segs []*mapreduce.Segment
	var err error
	if *input != "" {
		segs, err = mapreduce.ReadSegments(*input)
	} else {
		d := bench.GenDatasets(bench.Scale{Records: *records, Segments: *segments})
		segs, err = d.For(spec.Dataset, *condensed)
	}
	if err != nil {
		return err
	}
	var inputBytes, inputRecords int64
	for _, s := range segs {
		inputBytes += s.Bytes()
		inputRecords += int64(len(s.Records))
	}
	fmt.Fprintf(stdout, "corpus: %d records, %.1f MB, %d segments\n\n",
		inputRecords, float64(inputBytes)/1e6, len(segs))

	conf := mapreduce.Config{NumReducers: *reducers}
	var mem *obs.MemSink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		jsink := obs.NewJSONLSink(f) // Close flushes and closes f
		defer jsink.Close()
		mem = obs.NewMemSink()
		conf.Trace = obs.NewTrace(obs.MultiSink{jsink, mem})
		conf.Registry = obs.NewRegistry()
	}
	// The SYMPLE runner defaults to in-process; -workers N replaces it
	// with the remote path: N spawned sympled subprocesses on loopback
	// TCP, a Pool routing map attempts to them, and the driver's retry
	// machinery covering worker death. Other engines stay local — they
	// are the cross-check, not the system under test.
	sympleRun := func() (*queries.Run, error) { return spec.Symple(segs, conf) }
	if *workers > 0 {
		bin, err := cluster.ResolveWorkerBinary(*workerBin)
		if err != nil {
			return err
		}
		eps, err := cluster.SpawnWorkers(bin, *workers, cluster.SpawnOptions{})
		if err != nil {
			return err
		}
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
		}()
		pool, err := cluster.NewPool(queries.ClusterSpec(spec.ID, conf), eps)
		if err != nil {
			return err
		}
		defer pool.Close()
		rconf := conf
		rconf.RemoteMap = pool
		// Remote attempts are coordinator-side waits; keep enough task
		// parallelism in flight to cover every worker even when the
		// GOMAXPROCS default is smaller.
		rconf.Parallelism = max(*workers, runtime.GOMAXPROCS(0))
		rconf.MaxAttempts = 4
		rconf.Speculation = true
		rconf.RetryBackoff = 10 * time.Millisecond
		sympleRun = func() (*queries.Run, error) { return spec.Symple(segs, rconf) }
		fmt.Fprintf(stdout, "cluster: %d %s workers spawned, SYMPLE maps run remotely\n\n", *workers, bin)
	}
	type engineRun struct {
		name string
		run  func() (*queries.Run, error)
	}
	var engines []engineRun
	switch *engine {
	case "sequential":
		engines = append(engines, engineRun{"sequential", func() (*queries.Run, error) { return spec.Sequential(segs) }})
	case "baseline":
		engines = append(engines, engineRun{"baseline", func() (*queries.Run, error) { return spec.Baseline(segs, conf) }})
	case "symple":
		engines = append(engines, engineRun{"symple", sympleRun})
	case "all":
		engines = append(engines,
			engineRun{"sequential", func() (*queries.Run, error) { return spec.Sequential(segs) }},
			engineRun{"baseline", func() (*queries.Run, error) { return spec.Baseline(segs, conf) }},
			engineRun{"symple", sympleRun})
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	var digests []uint64
	for _, e := range engines {
		run, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		m := run.Metrics
		fmt.Fprintf(stdout, "[%s]\n", e.name)
		fmt.Fprintf(stdout, "  results: %d groups reported (digest %016x)\n", run.NumResults, run.Digest)
		fmt.Fprintf(stdout, "  wall: %v  (map %v, reduce %v)\n", m.TotalWall.Round(1e6), m.MapWall.Round(1e6), m.ReduceWall.Round(1e6))
		fmt.Fprintf(stdout, "  throughput: %.0f MB/s\n", float64(m.InputBytes)/1e6/m.TotalWall.Seconds())
		if e.name != "sequential" {
			fmt.Fprintf(stdout, "  shuffle: %d records, %.2f KB wire (%.2f KB logical)\n",
				m.ShuffleRecords, float64(m.ShuffleBytes)/1024, float64(m.ShuffleLogicalBytes)/1024)
		}
		// Symbolic counters accumulate where the mapper runs; under
		// -workers they stay in the worker processes, so skip the line.
		if e.name == "symple" && run.Sym.Records > 0 {
			fmt.Fprintf(stdout, "  symbolic: %d update runs over %d records (%.2fx), %d merges, %d restarts, %d summaries (%d of them small groups' events)\n",
				run.Sym.Runs, run.Sym.Records,
				float64(run.Sym.Runs)/float64(max(1, run.Sym.Records)),
				run.Sym.Merges, run.Sym.Restarts, run.Sym.Summaries, run.Sym.Events)
		}
		fmt.Fprintln(stdout)
		digests = append(digests, run.Digest)
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			fmt.Fprintln(stdout, "ENGINES DISAGREE — this is a bug")
			return errors.New("engines disagree")
		}
	}
	if len(digests) > 1 {
		fmt.Fprintln(stdout, "all engines agree ✓")
	}
	if mem != nil {
		spans := mem.Spans()
		if err := (obs.Verifier{}).Check(spans); err != nil {
			return fmt.Errorf("trace verification: %w", err)
		}
		if err := conf.Registry.SelfCheck(); err != nil {
			return fmt.Errorf("metrics self-check: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %d spans → %s, invariants hold ✓\n", len(spans), *tracePath)
	}
	return nil
}

// clientMain implements the submit/tail verbs against a serve-mode
// sympled daemon.
func clientMain(verb string, args []string) {
	fs := flag.NewFlagSet("symple "+verb, flag.ExitOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7070", "serve-mode sympled address")
		queryID = fs.String("query", "G1", "query ID (G1-G4, B1-B3, T1, R1-R4)")
		dataset = fs.String("dataset", "", "hosted dataset name (default: the query's corpus)")
		tenant  = fs.String("tenant", "cli", "admission-control tenant the job is billed to")
		every   = fs.Int("every", 1, "tail: refresh stride in appended segments")
	)
	_ = fs.Parse(args)
	id := strings.ToUpper(*queryID)
	ds := *dataset
	if ds == "" {
		spec := queries.ByID(id)
		if spec == nil {
			log.Fatalf("unknown query %q", id)
		}
		ds = spec.Dataset
	}
	c, err := serve.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	j, err := c.Submit(cluster.JobSubmit{
		Tenant: *tenant, Query: id, Dataset: ds,
		Tail: verb == "tail", TailEvery: *every,
	})
	if err != nil {
		log.Fatal(err)
	}
	if j.Accept.QueuePos > 0 {
		fmt.Printf("queued behind %d jobs\n", j.Accept.QueuePos)
	}
	for u := range j.Updates() {
		fmt.Printf("update %d: digest %016x, %d groups over %d segments (%d cached, %d mapped)\n",
			u.Seq, u.Digest, u.NumResults, u.Segments, u.CacheHits, u.MappedSegments)
	}
	res, err := j.Wait()
	if err != nil {
		log.Fatalf("job %d: %v", j.Accept.ID, err)
	}
	fmt.Printf("result: digest %016x, %d groups over %d segments (%d cached, %d mapped)\n",
		res.Digest, res.NumResults, res.Segments, res.CacheHits, res.MappedSegments)
}
