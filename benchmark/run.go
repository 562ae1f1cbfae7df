package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// runConfig is one run of one workload in the measured process.
type runConfig struct {
	w  *workload
	in *inputs
	// A run times whole rounds until window has passed and at least
	// minRounds are done, so a slow host lengthens the run and never
	// thins the sample.
	window    time.Duration
	minRounds int
	setups    int    // back-to-back set-ups timed for setup_s
	outDir    string // where a traced run writes its spans
}

// more reports whether a run that began at start and has done rounds
// rounds wants another.
func (cfg *runConfig) more(start time.Time, rounds int) bool {
	return time.Since(start) < cfg.window || rounds < cfg.minRounds
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with; the keys are the driver's.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// def names one metric of the benchmark. BENCHMARK.json repeats these
// lists; a test holds the two together.
type def struct{ name, unit string }

var endToEnd = []def{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"records_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

func finish(t *tally, defs []def, values map[string]float64) *result {
	r := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// printMetrics prints every metric by name and unit. With roundMs set,
// times are also shown as a share of that round wall; busy times add up
// over goroutines, so a share can pass 100%.
func printMetrics(defs []def, values map[string]float64, roundMs float64) {
	for _, d := range defs {
		if d.unit == "ms" && roundMs > 0 {
			fmt.Printf("  %-34s %14.3f ms %6.1f%%\n", d.name, values[d.name], 100*values[d.name]/roundMs)
		} else {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, values[d.name], d.unit)
		}
	}
}

// clock is a reading of the clocks every timed interval is read on.
type clock struct {
	wall   time.Time
	cpu    time.Duration // the process's user+sys CPU time so far
	stolen time.Duration // see stolenTime
}

func now() clock { return clock{time.Now(), cpuTime(), stolenTime()} }

// spent is what an interval cost. The times the benchmark reports start
// from cpu, not wall: the measured process runs with GOMAXPROCS 1 and a
// job computes from submission to result, so the CPU time of the interval
// is the wall time it would have had on a core of its own. On this host
// the core is shared: the hypervisor withholds it for anything from
// nothing to half of a run, the wall time stretches by as much, and the
// CPU clock, which stands still while the core is withheld, does not.
// wall and stolen are printed beside it.
type spent struct{ cpu, wall, stolen time.Duration }

func (c clock) since(c0 clock) spent {
	return spent{c.cpu - c0.cpu, c.wall.Sub(c0.wall), c.stolen - c0.stolen}
}

func (s *spent) add(d spent) { s.cpu += d.cpu; s.wall += d.wall; s.stolen += d.stolen }

// stolenPct is the share of the CPU time the process was ready to use
// that the hypervisor withheld.
func (s spent) stolenPct() float64 {
	if s.stolen <= 0 {
		return 0
	}
	return 100 * float64(s.stolen) / float64(s.cpu+s.stolen)
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// round is the timed part of one job of each class.
type round struct {
	jobs  []spent // per class
	spent         // their sum
	// tick is the round's typical yardstick tick, one being taken before
	// each job; zero in a round run without the yardstick.
	tick time.Duration
	counts
}

// runRound runs one job of each class, closed loop: a job is sent only
// when the previous result is in hand. A job that fails stays in the
// round: the tally makes the run incorrect, whatever it timed. bt, when
// set, records a span around each timed job; yard, when set, is read
// before each job, outside the job's interval.
func runRound(w *workload, p path, bt *obs.Trace, yard *yardstick) (round, error) {
	var r round
	var ticks []time.Duration
	for _, class := range w.classes {
		p.prepare(class)
		if yard != nil {
			tick, err := yard.tick()
			if err != nil {
				return r, err
			}
			ticks = append(ticks, tick)
		}
		span := bt.Start(kindBenchJob, class)
		c0 := now()
		c := p.run(class)
		job := now().since(c0)
		span.End()
		r.jobs = append(r.jobs, job)
		r.spent.add(job)
		r.counts.add(c)
	}
	if yard != nil {
		r.tick = typical(ticks)
	}
	return r, nil
}

// recordsPerRound is the records one round answers.
func recordsPerRound(w *workload, in *inputs) float64 {
	n := 0
	for _, class := range w.classes {
		n += in.Records[class]
		if w.kind == serveAppend {
			n += in.FreshRecords[class]
		}
	}
	return float64(n)
}

// setupTicks is how many yardstick ticks are taken on each side of a
// set-up.
const setupTicks = 3

// series is one metric's samples in the three readings a run prints: at
// the yardstick's nominal speed (the one reported), on the CPU clock as
// read, and on the wall clock.
type series struct{ nominal, cpu, wall []float64 }

// add takes one interval, measured beside a yardstick tick of length
// tick, in units of unit.
func (s *series) add(d spent, tick, unit time.Duration) {
	s.nominal = append(s.nominal, float64(against(d.cpu, tick))/float64(unit))
	s.cpu = append(s.cpu, float64(d.cpu)/float64(unit))
	s.wall = append(s.wall, float64(d.wall)/float64(unit))
}

// measure is the untraced run: it times the set-ups, then whole rounds
// for the window, and reports the end-to-end metrics. Every time in them
// is CPU time (see spent) at the yardstick's nominal speed (see
// yardstick.go); the readings it was derived from are printed beside it.
func measure(cfg runConfig) (*result, error) {
	w, t := cfg.w, &tally{}
	yard := newYardstick()
	var p path
	var setups series
	for i := 0; i < cfg.setups; i++ {
		before, err := yard.ticks(setupTicks)
		if err != nil {
			return nil, err
		}
		c0 := now()
		corp, err := load(w, cfg.in, nil)
		if err == nil {
			p, err = open(w, cfg.in, corp, nil, nil, t)
		}
		if err != nil {
			return nil, err
		}
		d := now().since(c0)
		after, err := yard.ticks(setupTicks)
		if err != nil {
			p.close()
			return nil, err
		}
		setups.add(d, typical(append(before, after...)), time.Second)
		if i < cfg.setups-1 {
			p.close()
			p, corp = nil, nil
		}
		// Collect what the set-up left behind outside both the set-up
		// interval and the timed window.
		runtime.GC()
	}
	defer p.close()

	var jobs, rounds series
	var ticks []float64
	var total spent
	var rss float64
	for start := time.Now(); cfg.more(start, len(ticks)); {
		r, err := runRound(w, p, nil, yard)
		if err != nil {
			return nil, err
		}
		for _, j := range r.jobs {
			jobs.add(j, r.tick, time.Millisecond)
		}
		rounds.add(r.spent, r.tick, time.Second)
		ticks = append(ticks, float64(r.tick)/float64(time.Microsecond))
		total.add(r.spent)
		if len(ticks) == cfg.minRounds {
			// The high-water mark after the same work in every run: one
			// taken at exit would rise with the rounds a faster host fits
			// into the window.
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	recs := recordsPerRound(w, cfg.in)
	fmt.Printf("%s: %d rounds, %d timed jobs, %d set-ups; %d jobs attempted, %d failed\n",
		w.name, len(ticks), len(jobs.cpu), len(setups.cpu), t.attempted, t.failed)
	fmt.Printf("  yardstick: median tick %.0f us beside the rounds, nominal %d us: times are CPU time x %.3f;"+
		" the host withheld %.1f%% of the CPU time the timed jobs were ready to use\n",
		median(ticks), yardNominal.Microseconds(), float64(yardNominal.Microseconds())/median(ticks), total.stolenPct())
	// job_p90_ms is printed in every reading and is no end-to-end metric:
	// its rank falls where the jobs that met a garbage collection begin
	// (see README.md), and the ledger reports it as job.p90_ms.
	for _, reading := range []struct {
		name                 string
		setups, jobs, rounds []float64
	}{
		{"at the yardstick's nominal speed", setups.nominal, jobs.nominal, rounds.nominal},
		{"on the CPU clock as read", setups.cpu, jobs.cpu, rounds.cpu},
		{"on the wall clock", setups.wall, jobs.wall, rounds.wall},
	} {
		fmt.Printf("  %s: setup_s %.6g, job_p50_ms %.6g, job_p90_ms %.6g, records_per_s %.6g\n", reading.name,
			median(reading.setups), percentile(reading.jobs, 0.50), percentile(reading.jobs, 0.90),
			recs/median(reading.rounds))
	}
	values := map[string]float64{
		"setup_s":       median(setups.nominal),
		"job_p50_ms":    percentile(jobs.nominal, 0.50),
		"records_per_s": recs / median(rounds.nominal),
		"peak_rss_mb":   rss,
	}
	printMetrics(endToEnd, values, 0)
	return finish(t, endToEnd, values), nil
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTime is the time the hypervisor has run something else while a
// CPU of this machine had a task ready to run, summed over the CPUs:
// the steal column of /proc/stat, which counts in hundredths of a
// second. It reads 0 where the kernel does not report it.
func stolenTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ is 100 on every Linux ABI
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// writeSpans writes every span of a traced run, the program's and the
// benchmark's, one JSON object per line.
func writeSpans(dir, workload string, spans []*obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, sp := range spans {
		sink.Emit(sp)
	}
	return sink.Close() // closes f too
}
