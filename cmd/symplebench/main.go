// Command symplebench regenerates the paper's tables and figures.
//
// Usage:
//
//	symplebench -experiment all
//	symplebench -experiment fig5 -records 500000
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, b1latency,
// ablation, cluster, all. See
// EXPERIMENTS.md for the paper-vs-measured record; -experiment cluster
// writes BENCH_CLUSTER.json (real
// coordinator/worker execution over loopback TCP on 1/2/4 spawned worker
// subprocesses, measured wall clock vs dcsim prediction).
// BENCH_SYMEXEC.json, BENCH_COLUMNAR.json, BENCH_SHUFFLE.json and
// BENCH_SERVE.json are frozen records of experiments whose baselines
// (the seed executor, the scalar chunk loop, the barrier shuffle, the
// service that digested and re-folded per submission) no longer exist.
// BENCH_COLUMNAR.json's columnar form, later the typed-column index, is
// gone too; commit 15ee2c5 reproduces it. BENCH_FAULTS.json records a
// failure replay over a cost model no engine path uses, and
// BENCH_OBS.json and BENCH_WIRE.json ones the benchmark's ledger
// replaced: the query service is measured by `go run ./benchmark`
// (serve-warm, serve-append), tracing overhead by its
// obs.trace_overhead_pct and shuffle bytes by its
// mapreduce.shuffle_bytes, on every workload. See EXPERIMENTS.md.
//
// -trace streams every engine run's spans to a JSONL file and -profile
// captures a CPU profile over the whole invocation.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/queries"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("symplebench: ")
	// The cluster experiment spawns copies of this binary as workers,
	// flipped into worker mode by env var (see bench.ClusterRun).
	if os.Getenv(bench.WorkerEnv) == "1" {
		queries.RegisterClusterJobs()
		if err := cluster.WorkerMain(""); err != nil {
			log.Fatal(err)
		}
		return
	}
	var (
		experiment = flag.String("experiment", "all", "table1 | fig4 | fig5 | fig6 | fig7 | fig8 | b1latency | ablation | cluster | all")
		records    = flag.Int("records", 200000, "records per generated corpus")
		segments   = flag.Int("segments", 8, "input segments (measured mapper count)")
		tracePath  = flag.String("trace", "", "stream every engine run's spans to this JSONL file")
		profile    = flag.String("profile", "", "write a CPU profile covering the whole invocation to this file")
	)
	flag.Parse()

	if *profile != "" {
		stop, err := obs.CPUProfile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		jsink := obs.NewJSONLSink(f) // Close flushes and closes f
		defer jsink.Close()
		bench.Trace = obs.NewTrace(jsink)
		bench.Registry = obs.NewRegistry()
		defer func() {
			if err := bench.Registry.SelfCheck(); err != nil {
				log.Fatalf("metrics self-check: %v", err)
			}
		}()
	}

	sc := bench.Scale{Records: *records, Segments: *segments}
	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	var d *bench.Datasets
	datasets := func() *bench.Datasets {
		if d == nil {
			fmt.Fprintf(os.Stderr, "generating corpora (%d records each)...\n", sc.Records)
			d = bench.GenDatasets(sc)
		}
		return d
	}

	type exp struct {
		name string
		run  func() (*bench.Table, error)
	}
	exps := []exp{
		{"table1", func() (*bench.Table, error) { return bench.Table1(datasets()) }},
		{"fig4", func() (*bench.Table, error) { return bench.Fig4(sc) }},
		{"fig5", func() (*bench.Table, error) { return bench.Fig5(datasets()) }},
		{"fig6", func() (*bench.Table, error) { return bench.Fig6(datasets()) }},
		{"fig7", func() (*bench.Table, error) { return bench.Fig7(datasets()) }},
		{"fig8", func() (*bench.Table, error) { return bench.Fig8(datasets()) }},
		{"b1latency", func() (*bench.Table, error) { return bench.B1Latency(datasets()) }},
		{"ablation", func() (*bench.Table, error) { return bench.AblationMerging(datasets()) }},
		{"cluster", func() (*bench.Table, error) { return bench.ClusterRun(datasets()) }},
	}
	ran := 0
	for _, e := range exps {
		if !all && !want[e.name] {
			continue
		}
		t, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		t.Render(os.Stdout)
		ran++
		if e.name == "ablation" {
			for _, extra := range []func() (*bench.Table, error){
				func() (*bench.Table, error) { return bench.AblationPathCap(datasets()) },
				func() (*bench.Table, error) { return bench.AblationCompose(64, 2000) },
				bench.AblationPredWindow,
			} {
				t, err := extra()
				if err != nil {
					log.Fatalf("ablation: %v", err)
				}
				t.Render(os.Stdout)
			}
		}
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *experiment)
	}
}
