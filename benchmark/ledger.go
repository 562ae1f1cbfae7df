package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
)

// perLayer lists the ledger: every value is per round (one job of each
// class), times in ms, counts as counts. A layer the workload's path
// does not cross reports 0.
var perLayer = []def{
	// Staged probe: each class's job run single-threaded through the
	// layers' public functions, each call timed from outside.
	{"mapreduce.load_ms", "ms"},
	{"data.field_scan_ms", "ms"},
	{"core.map_ms", "ms"},
	{"mapreduce.merge_ms", "ms"},
	{"sym.fold_ms", "ms"},
	{"queries.result_ms", "ms"},
	{"probe.serial_ms", "ms"},
	{"job.parallel_speedup", "x"},
	// What the untraced jobs cost the process, on the CPU clock as read,
	// and what the host kept from them: getrusage and /proc/stat around
	// each job.
	{"job.cpu_s_per_mrec", "s"},
	{"job.p90_ms", "ms"},
	{"host.steal_pct", "%"},
	// Busy time by kind of the spans the program already emits.
	{"core.map_parse_busy_ms", "ms"},
	{"sym.map_exec_busy_ms", "ms"},
	{"mapreduce.spill_encode_busy_ms", "ms"},
	{"mapreduce.seg_decode_busy_ms", "ms"},
	{"mapreduce.premerge_busy_ms", "ms"},
	{"core.compose_busy_ms", "ms"},
	{"mapreduce.map_attempt_busy_ms", "ms"},
	{"mapreduce.reduce_attempt_busy_ms", "ms"},
	{"mapreduce.map_phase_ms", "ms"},
	{"mapreduce.reduce_tail_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.fold_busy_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.add_dataset_ms", "ms"},
	{"serve.append_ms", "ms"},
	{"serve.other_ms", "ms"},
	{"cluster.frame_rtt_ms", "ms"},
	{"job.unattributed_pct", "%"},
	// Counts from the program's public results.
	{"mapreduce.shuffle_bytes", "bytes"},
	{"mapreduce.shuffle_logical_bytes", "bytes"},
	{"mapreduce.map_attempts", "count"},
	{"sym.summaries", "count"},
	{"core.groups", "count"},
	{"serve.cache_hits", "count"},
	{"serve.mapped_segments", "count"},
	{"serve.cache_bytes", "bytes"},
	{"obs.spans", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// busyKinds maps a ledger line to the span kind whose durations it sums.
var busyKinds = map[string]string{
	"core.map_parse_busy_ms":           obs.KindMapParse,
	"sym.map_exec_busy_ms":             obs.KindMapExec,
	"mapreduce.spill_encode_busy_ms":   obs.KindSpillEncode,
	"mapreduce.seg_decode_busy_ms":     obs.KindSegDecode,
	"mapreduce.premerge_busy_ms":       obs.KindMerge,
	"core.compose_busy_ms":             obs.KindCompose,
	"mapreduce.map_attempt_busy_ms":    obs.KindMapAttempt,
	"mapreduce.reduce_attempt_busy_ms": obs.KindReduceAttempt,
	"serve.queue_wait_ms":              obs.KindQueue,
	"serve.fold_busy_ms":               obs.KindFold,
}

const probePasses = 3

// scanned keeps the field scan's result live so the compiler cannot
// drop the loop.
var scanned int

// stagedProbe runs one job of each class single-threaded through the
// layers' public functions, timing each call, and returns the ledger's
// probe lines summed over the classes: the median of probePasses
// passes per class. The staged digest must equal the reference.
func stagedProbe(w *workload, in *inputs) (map[string]float64, error) {
	out := map[string]float64{}
	for _, class := range w.classes {
		passes := map[string][]float64{}
		for i := 0; i < probePasses; i++ {
			stages, err := probeClass(class, in)
			if err != nil {
				return nil, fmt.Errorf("staged probe %s: %w", class, err)
			}
			for name, ms := range stages {
				passes[name] = append(passes[name], ms)
			}
			runtime.GC()
		}
		for name, ms := range passes {
			out[name] += median(ms)
		}
	}
	out["probe.serial_ms"] = out["core.map_ms"] + out["mapreduce.merge_ms"] +
		out["sym.fold_ms"] + out["queries.result_ms"]
	return out, nil
}

// runCapture keeps the runs a map attempt publishes, by partition.
type runCapture [][]mapreduce.Run

func (c runCapture) Publish(r mapreduce.Run) error {
	c[r.Part] = append(c[r.Part], r)
	return nil
}

func probeClass(class string, in *inputs) (map[string]float64, error) {
	sp, err := spec(class)
	if err != nil {
		return nil, err
	}
	// Laps are read on the CPU clock, like every time the untraced run
	// reports: the probe's calls are single-threaded too.
	stages := map[string]float64{}
	var t0 time.Duration
	lap := func(name string) {
		stages[name] = millis(cpuTime() - t0)
		t0 = cpuTime()
	}

	t0 = cpuTime()
	segs, err := mapreduce.ReadSegments(baseDir(in.Dir, sp.Dataset))
	if err != nil {
		return nil, err
	}
	lap("mapreduce.load_ms")

	// The floor under parsing: split every record's three leading
	// fields and touch nothing else.
	for _, seg := range segs {
		for _, rec := range seg.Records {
			a, b, c := data.Field3(rec, 0, 1, 2)
			scanned += len(a) + len(b) + len(c)
		}
	}
	lap("data.field_scan_ms")

	runner := serve.Lookup(class)
	if runner == nil {
		return nil, fmt.Errorf("query not registered with the service")
	}
	sess, err := runner.NewSession()
	if err != nil {
		return nil, err
	}
	mapFn, err := sess.Mapper(nil)
	if err != nil {
		return nil, err
	}
	parts := engineConf(nil).NumReducers
	t0 = cpuTime()
	runs := make(runCapture, parts)
	for i, seg := range segs {
		if _, err := mapreduce.ExecuteMap(mapFn, seg, i, 0, parts, false, nil, runs); err != nil {
			return nil, err
		}
	}
	lap("core.map_ms")

	bundles := make([]map[string][]byte, len(segs))
	for i := range bundles {
		bundles[i] = map[string][]byte{}
	}
	for p, rs := range runs {
		err := mapreduce.MergeEncodedRuns(p, rs, nil, func(key string, group []mapreduce.Shuffled) error {
			for _, v := range group {
				// The values alias decode buffers the merge reuses.
				bundles[v.MapperID][key] = append([]byte(nil), v.Value...)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	lap("mapreduce.merge_ms")

	for _, b := range bundles {
		if err := sess.Fold(b); err != nil {
			return nil, err
		}
	}
	lap("sym.fold_ms")

	res, err := sess.Result()
	if err != nil {
		return nil, err
	}
	lap("queries.result_ms")
	if res.Digest != in.Want[class] {
		return nil, fmt.Errorf("staged digest %016x, sequential %016x", res.Digest, in.Want[class])
	}
	return stages, nil
}

// spanLedger derives the ledger's span lines from a traced run: spans
// holds everything the run recorded, since is when the timed window
// began (earlier spans belong to set-up and warm-up), rounds is the
// number of traced rounds in the window, classes the jobs per round.
func spanLedger(spans []*obs.Span, since int64, rounds, classes int) map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	out := map[string]float64{}

	var program, jobs []*obs.Span
	byKind := map[string]int64{}
	var addDataset, addDatasets, appendNs int64
	for _, sp := range spans {
		switch {
		case sp.Kind == kindBenchAddDataset:
			addDataset += sp.End - sp.Start
			addDatasets++
		case sp.Start < since:
		case sp.Kind == kindBenchJob:
			jobs = append(jobs, sp)
		case sp.Kind == kindBenchAppend:
			appendNs += sp.End - sp.Start
		case !strings.HasPrefix(sp.Kind, "bench_"):
			program = append(program, sp)
			byKind[sp.Kind] += sp.End - sp.Start
		}
	}
	for name, kind := range busyKinds {
		out[name] = ms(byKind[kind])
	}
	out["obs.spans"] = float64(len(program)) / float64(rounds)
	out["serve.append_ms"] = ms(appendNs)
	if addDatasets > 0 {
		// AddDataset runs at set-up, and on serve-append before every
		// job; either way: the mean call, once per class.
		out["serve.add_dataset_ms"] = float64(addDataset) / 1e6 / float64(addDatasets) * float64(classes)
	}

	// An engine job is a root with map attempts under it; on the
	// service it is nested under the serve job's root.
	type phase struct{ first, last int64 }
	maps := map[int64]*phase{}
	for _, sp := range program {
		if sp.Kind != obs.KindMapAttempt {
			continue
		}
		ph := maps[sp.Parent]
		if ph == nil {
			ph = &phase{first: sp.Start, last: sp.End}
			maps[sp.Parent] = ph
		}
		ph.first, ph.last = min(ph.first, sp.Start), max(ph.last, sp.End)
	}
	var mapPhase, reduceTail, engine, serveRoots int64
	var leaves []interval
	for _, sp := range program {
		if sp.Kind != obs.KindJob {
			leaves = append(leaves, interval{sp.Start, sp.End})
			continue
		}
		if ph := maps[sp.ID]; ph != nil {
			mapPhase += ph.last - ph.first
			reduceTail += sp.End - ph.last
		}
		if sp.Parent != 0 {
			engine += sp.End - sp.Start
		} else if strings.HasPrefix(sp.Name, "serve/") {
			serveRoots += sp.End - sp.Start
		}
	}
	out["mapreduce.map_phase_ms"] = ms(mapPhase)
	out["mapreduce.reduce_tail_ms"] = ms(reduceTail)
	out["serve.engine_ms"] = ms(engine)

	var wall, bare int64
	for _, j := range jobs {
		wall += j.End - j.Start
		bare += selfTime(interval{j.Start, j.End}, leaves)
	}
	if serveRoots > 0 {
		out["serve.other_ms"] = ms(serveRoots - byKind[obs.KindQueue] - engine - byKind[obs.KindFold])
		out["cluster.frame_rtt_ms"] = ms(wall - serveRoots)
	}
	if wall > 0 {
		// The share of the client-observed wall during which no layer
		// of the program had a span open.
		out["job.unattributed_pct"] = 100 * float64(bare) / float64(wall)
	}
	return out
}

// traced is the per-layer run: the staged probe, then rounds that
// alternate between a path with a trace attached and one without, so
// that the ledger and the cost of recording it come from the same
// minutes of the same process.
func traced(cfg runConfig) (*result, error) {
	w, t := cfg.w, &tally{}
	ledger, err := stagedProbe(w, cfg.in)
	if err != nil {
		return nil, err
	}

	sink := obs.NewMemSink()
	trace := obs.NewTrace(sink)
	bt := trace.Fork()
	corp, err := load(w, cfg.in, bt)
	if err != nil {
		return nil, err
	}
	// Side 0 is untraced, side 1 traced; only the traced side's calls
	// get benchmark spans.
	traces, bts := [2]*obs.Trace{nil, trace}, [2]*obs.Trace{nil, bt}
	var paths [2]path
	for i := range paths {
		if paths[i], err = open(w, cfg.in, corp, traces[i], bts[i], t); err != nil {
			return nil, err
		}
		defer paths[i].close()
	}
	runtime.GC()

	since := time.Now()
	var rounds [2][]round
	var timed time.Duration
	for n := 0; cfg.more(since, n); n++ {
		// Alternate which side goes first: a fixed order would charge
		// one side with the other's garbage.
		for _, i := range []int{n % 2, 1 - n%2} {
			r, err := runRound(w, paths[i], bts[i], nil)
			if err != nil {
				return nil, err
			}
			rounds[i] = append(rounds[i], r)
			if i == 1 {
				timed += r.wall
			}
		}
	}

	// Each traced round is paired with the untraced round run next to it.
	var roundMs, cpuRoundMs, jobMs, overhead, cpuPerMrec []float64
	var total counts
	var used spent
	recs := recordsPerRound(w, cfg.in)
	for i := range rounds[1] {
		plain, tr := &rounds[0][i], &rounds[1][i]
		// The spans are read on the wall clock, so the round they are
		// shown beside is too; the two sides of a pair are compared on the
		// CPU clock, which the host cannot stretch.
		roundMs = append(roundMs, millis(plain.wall))
		cpuRoundMs = append(cpuRoundMs, millis(plain.cpu))
		for _, j := range plain.jobs {
			jobMs = append(jobMs, millis(j.cpu))
		}
		overhead = append(overhead, float64(tr.cpu)/float64(plain.cpu)-1)
		cpuPerMrec = append(cpuPerMrec, plain.cpu.Seconds()/(recs/1e6))
		total.add(tr.counts)
		used.add(plain.spent)
		used.add(tr.spent)
	}
	n := float64(len(rounds[1]))
	spans := sink.Spans()
	for name, v := range spanLedger(spans, since.UnixNano(), len(rounds[1]), len(w.classes)) {
		ledger[name] = v
	}
	ledger["job.parallel_speedup"] = ledger["probe.serial_ms"] / median(cpuRoundMs)
	ledger["job.cpu_s_per_mrec"] = median(cpuPerMrec)
	ledger["job.p90_ms"] = percentile(jobMs, 0.90)
	ledger["host.steal_pct"] = used.stolenPct()
	ledger["mapreduce.shuffle_bytes"] = float64(total.shuffleBytes) / n
	ledger["mapreduce.shuffle_logical_bytes"] = float64(total.shuffleLogical) / n
	ledger["mapreduce.map_attempts"] = float64(total.mapAttempts) / n
	ledger["sym.summaries"] = float64(total.summaries) / n
	ledger["core.groups"] = float64(total.groups) / n
	ledger["serve.cache_hits"] = float64(total.cacheHits) / n
	ledger["serve.mapped_segments"] = float64(total.mappedSegments) / n
	if s, ok := paths[1].(*service); ok {
		ledger["serve.cache_bytes"] = float64(s.srv.CacheStats().Bytes)
	}
	ledger["obs.trace_overhead_pct"] = 100 * median(overhead)

	if err := writeSpans(cfg.outDir, w.name, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d traced and %d untraced rounds, %.1f s traced, %d spans; per round, beside the untraced round wall of %.1f ms:\n",
		w.name, len(rounds[1]), len(rounds[0]), timed.Seconds(), len(spans), median(roundMs))
	printMetrics(perLayer, ledger, median(roundMs))
	return finish(t, perLayer, ledger), nil
}
