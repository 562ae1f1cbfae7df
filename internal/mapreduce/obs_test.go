package mapreduce

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// obsTestJob is a small multi-segment wordcount-style job used by the
// tracing tests; emits enough keys to populate every reducer.
func obsTestJob(reducers int) (*Job, []*Segment) {
	var lines []string
	for i := 0; i < 120; i++ {
		lines = append(lines, fmt.Sprintf("key%02d value-%d", i%17, i))
	}
	segs := segmentsFromLines(lines, 6)
	var mu sync.Mutex
	seen := map[string]int{}
	job := &Job{
		Name: "obs-test",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				fields := strings.Fields(string(rec))
				emit(fields[0], int64(i), []byte(fields[1]))
			}
			return nil
		},
		Reduce: func(_, _ int, key string, values []Shuffled) error {
			mu.Lock()
			seen[key] = len(values)
			mu.Unlock()
			return nil
		},
		Conf: Config{NumReducers: reducers},
	}
	return job, segs
}

// TestTracedJobVerifies runs the engine under every mode (raw,
// map-only) with a trace attached, and requires the
// resulting trace to pass every obs.Verifier invariant — the engine's
// commit protocol, run accounting, and byte accounting proven on a live
// run, not asserted by construction.
func TestTracedJobVerifies(t *testing.T) {
	cases := []struct {
		name string
		conf Config
	}{
		{"raw", Config{NumReducers: 3}},
		{"map-only", Config{NumReducers: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job, segs := obsTestJob(3)
			if tc.name == "map-only" {
				job.Reduce = nil
			}
			sink := obs.NewMemSink()
			conf := tc.conf
			conf.Trace = obs.NewTrace(sink)
			conf.Registry = obs.NewRegistry()
			job.Conf = conf
			m, err := job.Run(segs)
			if err != nil {
				t.Fatal(err)
			}
			spans := sink.Spans()
			if err := (obs.Verifier{}).Check(spans); err != nil {
				t.Fatalf("trace failed verification: %v", err)
			}
			var jobSpan *obs.Span
			attempts, commits, merges := 0, 0, 0
			for _, sp := range spans {
				switch sp.Kind {
				case obs.KindJob:
					jobSpan = sp
				case obs.KindMapAttempt:
					attempts++
				case obs.KindCommit:
					commits++
				case obs.KindMerge:
					merges++
					fallthrough
				case obs.KindSpillEncode, obs.KindRunCommit, obs.KindSegDecode, obs.KindReduceAttempt, obs.KindCompose:
					// A map-only job commits its tasks and crosses nothing
					// else: no run is committed that nothing would consume.
					if job.Reduce == nil {
						t.Errorf("map-only job emitted a %s span", sp.Kind)
					}
				}
			}
			if job.Reduce == nil && commits != len(segs) {
				t.Errorf("%d commit spans, want one per map task (%d)", commits, len(segs))
			}
			if job.Reduce != nil && merges != conf.NumReducers {
				t.Errorf("%d merge spans, want one per reduce attempt (%d)", merges, conf.NumReducers)
			}
			if jobSpan == nil {
				t.Fatal("no job span")
			}
			if got := jobSpan.Attr(obs.AttrWireBytes); got != m.ShuffleBytes {
				t.Errorf("job span wire bytes %d, Metrics %d", got, m.ShuffleBytes)
			}
			if got := jobSpan.Attr(obs.AttrGroups); got != m.Groups {
				t.Errorf("job span groups %d, Metrics %d", got, m.Groups)
			}
			if attempts != len(segs) {
				t.Errorf("%d map attempt spans, want %d", attempts, len(segs))
			}
			if err := conf.Registry.SelfCheck(); err != nil {
				t.Errorf("merged registry self-check: %v", err)
			}
		})
	}
}

// TestSpanCountExact pins the trace's size to the job, not the
// schedule: every reduce attempt opens one grouping span and one compose
// span, whether or not runs reached its partition, so repeated runs of
// one job emit the same number of spans.
func TestSpanCountExact(t *testing.T) {
	for reducers := 1; reducers <= 4; reducers++ {
		for _, oneKey := range []bool{false, true} {
			counts := map[int]int{}
			for i := 0; i < 3; i++ {
				job, segs := obsTestJob(reducers)
				if oneKey {
					// Every record under one key: one partition gets runs,
					// the others none.
					job.Map = func(_ int, seg *Segment, emit Emit) error {
						for i, rec := range seg.Records {
							emit("key00", int64(i), rec)
						}
						return nil
					}
				}
				sink := obs.NewMemSink()
				job.Conf.Parallelism = 1 + i%3
				job.Conf.Trace = obs.NewTrace(sink)
				if _, err := job.Run(segs); err != nil {
					t.Fatal(err)
				}
				spans := sink.Spans()
				counts[len(spans)]++
				kinds := map[string]int{}
				decoded := map[int64]bool{}
				var groups, values int64
				for _, sp := range spans {
					kinds[sp.Kind]++
					switch sp.Kind {
					case obs.KindSegDecode:
						decoded[sp.Attr(obs.AttrPart)] = true
					case obs.KindCompose:
						groups += sp.Attr(obs.AttrGroups)
						values += sp.Attr(obs.AttrValues)
					}
				}
				if kinds[obs.KindReduceAttempt] != reducers || kinds[obs.KindMerge] != reducers ||
					kinds[obs.KindCompose] != reducers {
					t.Fatalf("%d reducers, one key %v: %d reduce attempts, %d merge and %d compose spans, want %d each",
						reducers, oneKey, kinds[obs.KindReduceAttempt], kinds[obs.KindMerge], kinds[obs.KindCompose], reducers)
				}
				if wantGroups := map[bool]int64{false: 17, true: 1}[oneKey]; groups != wantGroups || values != 120 {
					t.Fatalf("%d reducers, one key %v: compose spans reduced %d groups of %d values, want %d of 120",
						reducers, oneKey, groups, values, wantGroups)
				}
				if oneKey && reducers > 1 && len(decoded) != 1 {
					t.Fatalf("%d reducers: runs reached %d partitions, want 1", reducers, len(decoded))
				}
			}
			if len(counts) != 1 {
				t.Fatalf("%d reducers, one key %v: span counts vary between runs of one job: %v",
					reducers, oneKey, counts)
			}
		}
	}
}

// TestReduceMidFaultTagsCompose: a reduce attempt failed after some of
// its groups leaves a compose span tagged outcome=error over the groups
// it reduced, and the retry's span follows it untagged; the trace still
// verifies.
func TestReduceMidFaultTagsCompose(t *testing.T) {
	job, segs := obsTestJob(2)
	sink := obs.NewMemSink()
	plan := NewFaultPlan(3).WithPoints(PointReduceMid).WithKinds(KindError, KindKill).WithRate(1)
	job.Conf = Config{NumReducers: 2, MaxAttempts: 2, Faults: plan, Trace: obs.NewTrace(sink)}
	if _, err := job.Run(segs); err != nil {
		t.Fatal(err)
	}
	if plan.Injected() != 2 {
		t.Fatalf("%d faults armed, want one per reduce task", plan.Injected())
	}
	spans := sink.Spans()
	if err := (obs.Verifier{}).Check(spans); err != nil {
		t.Fatalf("trace failed verification: %v", err)
	}
	composes := map[int64][]*obs.Span{}
	for _, sp := range spans {
		if sp.Kind == obs.KindCompose {
			p := sp.Attr(obs.AttrPart)
			composes[p] = append(composes[p], sp)
		}
	}
	for p := int64(0); p < 2; p++ {
		c := composes[p]
		if len(c) != 2 {
			t.Fatalf("part %d: %d compose spans, want one per attempt (2)", p, len(c))
		}
		failed, retry := c[0], c[1]
		if failed.Tag(obs.TagOutcome) != "error" || retry.Tag(obs.TagOutcome) != "" {
			t.Errorf("part %d: compose outcomes %q then %q, want \"error\" then none",
				p, failed.Tag(obs.TagOutcome), retry.Tag(obs.TagOutcome))
		}
		if g := failed.Attr(obs.AttrGroups); g < 1 || g > retry.Attr(obs.AttrGroups) ||
			failed.Attr(obs.AttrValues) > retry.Attr(obs.AttrValues) {
			t.Errorf("part %d: failed attempt reduced %d groups of %d values, the retry %d of %d",
				p, g, failed.Attr(obs.AttrValues), retry.Attr(obs.AttrGroups), retry.Attr(obs.AttrValues))
		}
	}
}

// TestTracedChaosJobVerifies injects kill/error faults with retries
// enabled and requires the trace to still verify: failed attempts carry
// error outcomes, only winners commit, and every committed run is merged
// exactly once despite the retries — and from seed 5 as a map-only job (commit matches
// attempt and the cpu bound are all that is left to check, and are).
func TestTracedChaosJobVerifies(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			job, segs := obsTestJob(2)
			if seed > 4 {
				job.Reduce = nil
			}
			sink := obs.NewMemSink()
			job.Conf = Config{
				NumReducers: 2,
				MaxAttempts: 4,
				Speculation: true,
				Faults:      NewFaultPlan(seed).WithRate(0.4).WithMaxDelay(2 * time.Millisecond),
				Trace:       obs.NewTrace(sink),
			}
			if _, err := job.Run(segs); err != nil {
				t.Fatalf("chaos job failed (final attempts are spared): %v", err)
			}
			if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
				t.Fatalf("chaos trace failed verification: %v", err)
			}
		})
	}
}

// TestMetricsDerivedFromRegistry pins the derived-view contract: the
// legacy Metrics scalars must equal the registry instruments the engine
// observed, and the per-job registry must merge into Config.Registry.
func TestMetricsDerivedFromRegistry(t *testing.T) {
	job, segs := obsTestJob(3)
	reg := obs.NewRegistry()
	job.Conf.Registry = reg
	m, err := job.Run(segs)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checks := map[string]int64{
		MetricMapAttempts:    m.MapAttempts,
		MetricShuffleBytes:   m.ShuffleBytes,
		MetricShuffleLogical: m.ShuffleLogicalBytes,
		MetricShuffleRecords: m.ShuffleRecords,
		MetricInputBytes:     m.InputBytes,
		MetricInputRecords:   m.InputRecords,
		MetricGroups:         m.Groups,
	}
	for name, want := range checks {
		if snap[name] != want {
			t.Errorf("registry %s = %d, Metrics says %d", name, snap[name], want)
		}
	}
	if snap[MetricMapTaskNS+".count"] != m.MapAttempts {
		t.Errorf("map task duration histogram has %d observations, want %d",
			snap[MetricMapTaskNS+".count"], m.MapAttempts)
	}
	if snap[MetricGroupValues+".count"] != m.Groups {
		t.Errorf("group size histogram has %d observations, want %d groups",
			snap[MetricGroupValues+".count"], m.Groups)
	}
	if err := reg.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestUntracedJobEmitsNothing guards the off switch: with no trace and
// no registry configured the job must run exactly as before (the
// engine's private registry never escapes).
func TestUntracedJobEmitsNothing(t *testing.T) {
	job, segs := obsTestJob(2)
	if _, err := job.Run(segs); err != nil {
		t.Fatal(err)
	}
}
