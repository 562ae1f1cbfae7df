// Command benchmark is the repo's benchmark: four workloads over the
// two entry points a user has (in-process Spec.Symple and the loopback
// query service), four end-to-end metrics, and a per-layer ledger timed
// from outside the program. README.md in this directory says what each
// number means; BENCHMARK.json at the repo root fixes the names, units,
// directions and regression bounds.
//
//	go run ./benchmark                        every workload, end to end
//	go run ./benchmark -trace 1               every workload, per layer
//	go run ./benchmark -workload serve-warm -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -repeat 10             noise self-check -> benchmark/NOISE.json
//	go run ./benchmark -smoke                 tiny inputs, both modes, in-process
//
// One invocation with -workload is two processes: this one generates
// the inputs from the seed, writes them under benchmark/out and computes
// the sequential reference digests; a child of the same binary loads
// them and is the only process measured, so peak_rss_mb and CPU time are
// the program's and one workload's heap cannot perturb the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	outDir = "benchmark/out" // everything a run writes; ignored by git
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// setups is how many back-to-back set-ups setup_s is the median of.
	setups = 5
	// minRounds puts ten samples beyond job_p90_ms on every workload:
	// three classes a round, so at least 102 timed jobs.
	minRounds = 34
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	smoke    bool
	child    string // path of the inputs file: this process is the measured one
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, in order)")
	flag.Int64Var(&o.seed, "seed", 1, "offsets every generator seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "timed work per run, in seconds of job wall")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and benchmark/out/trace-<workload>.jsonl")
	flag.IntVar(&o.repeat, "repeat", 0, "run the untraced benchmark this many times in fresh processes and write benchmark/NOISE.json")
	flag.BoolVar(&o.smoke, "smoke", false, "2000-record inputs, 2 rounds, every workload in both modes, in this process")
	flag.StringVar(&o.child, "child", "", "internal: measure the workload over this inputs file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace wants 0 or 1")
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		if workloadByName(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	switch {
	case o.child != "":
		return measured(o)
	case o.smoke:
		return smoke(os.Stdout, names, filepath.Join(outDir, "smoke"))
	case o.repeat > 0:
		return noiseCheck(ctx, o, names)
	}
	for _, name := range names {
		if _, err := spawn(ctx, o, name, os.Stdout); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if len(names) > 1 {
		// This change defines the benchmark; it measures nothing against it.
		fmt.Println(`{"claim": null}`)
	}
	return nil
}

// spawn generates one workload's inputs and measures it in a child
// process whose output is copied to out. The child's last line is the
// result.
func spawn(ctx context.Context, o options, name string, out io.Writer) (*result, error) {
	if _, err := os.Stat("benchmark"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := generate(workloadByName(name), false, o.seed, dir)
	if err != nil {
		return nil, err
	}
	inputsFile := filepath.Join(dir, "inputs.json")
	b, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(inputsFile, b, 0o644); err != nil {
		return nil, err
	}
	in = nil // the child holds the inputs now; do not keep a second copy resident
	runtime.GC()

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", inputsFile, "-workload", name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("no result from the measured process: %w", err))
	}
	return &res, runErr
}

// measured is the child: it loads the inputs, measures, prints the
// run's parameters and then the result as the last line of stdout, and
// fails if any job did.
func measured(o options) error {
	b, err := os.ReadFile(o.child)
	if err != nil {
		return err
	}
	var in inputs
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	// One thread of Go code, whatever the host has: every reported time
	// is read on the process's CPU clock (see spent in run.go), and that
	// is a job's time on a core of its own only if nothing in the process
	// runs beside the job.
	const procs = 1
	runtime.GOMAXPROCS(procs)
	cfg := runConfig{w: workloadByName(o.workload), in: &in, window: time.Duration(o.seconds) * time.Second,
		minRounds: minRounds, setups: setups, outDir: outDir}
	fmt.Printf(`{"workload": %q, "seed": %d, "seconds": %d, "trace": %d, "host_cores": %d, "gomaxprocs": %d, "go": %q}`+"\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), procs, runtime.Version())
	res, err := execute(cfg, o.trace == 1)
	if err != nil {
		return err
	}
	return printResult(os.Stdout, res)
}

// execute runs one workload in this process in one of the two modes.
func execute(cfg runConfig, trace bool) (*result, error) {
	mode := measure
	if trace {
		mode = traced
		// Traced rounds and the untraced rounds paired with them fill half
		// the window, a quarter of the rounds each; the staged probe takes
		// the rest.
		cfg.window /= 2
		cfg.minRounds = (cfg.minRounds + 3) / 4
	}
	return mode(cfg)
}

// printResult prints the result line, and fails if a job of the run did.
func printResult(out io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n", b); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", res.Failed, res.Attempted)
	}
	return nil
}

// smoke crosses every layer the benchmark touches on inputs small
// enough for the test suite: every named workload, both modes, two
// rounds, no child process. It works in dir and removes it.
func smoke(out io.Writer, names []string, dir string) error {
	defer os.RemoveAll(dir)
	for _, name := range names {
		w := workloadByName(name)
		in, err := generate(w, true, 1, filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, trace := range []bool{false, true} {
			res, err := execute(runConfig{w: w, in: in, minRounds: 2, setups: 1, outDir: dir}, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if err := printResult(out, res); err != nil {
				return err
			}
		}
	}
	return nil
}
