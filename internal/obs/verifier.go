package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Invariant names, used by Violation and pinned by tests.
const (
	InvSpanClock       = "span-clock"        // End >= Start on every span
	InvOrphanSpan      = "orphan-span"       // every parent reference resolves
	InvSpanContainment = "span-containment"  // child intervals inside the job interval
	InvCPUBound        = "cpu-bound"         // Σ attempt spans <= job wall × parallelism
	InvWireBytes       = "wire-bytes"        // wire bytes <= logical bytes (+slack)
	InvRunMergedOnce   = "run-merged-once"   // every committed run decoded exactly once
	InvRunUnknown      = "run-unknown"       // no decode of a never-committed run
	InvSingleCommit    = "single-commit"     // at most one commit per task (spec losers never commit)
	InvCommitNoAttempt = "commit-no-attempt" // every commit has a matching attempt span
	InvDuplicateSpan   = "duplicate-span"    // span IDs unique within a job
	InvJobMissing      = "job-missing"       // non-empty trace must contain a job span
	InvBatchRecords    = "batch-records"     // every parse/exec span: kept events <= chunk records; parse/exec agree per task
	InvServeCache      = "serve-cache"       // warm serve jobs do no map work, prefix-answered ones no fold; provenance adds up
)

// Violation is one failed invariant over a trace.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// containSlack absorbs clock coarseness between a child span's end and
// the job span's end (the job span is closed after all workers join, but
// coarse clocks can tie; scheduling between a worker's time.Now and the
// emit also allows small inversions at start).
const containSlack = 5 * time.Millisecond

// cpuSlack absorbs per-attempt timer coarseness in the cpu-bound check.
const cpuSlack = 50 * time.Millisecond

// Verifier checks a completed trace against the engine's invariants.
// The zero value is ready to use.
type Verifier struct{}

// Verify runs every invariant over the trace and returns all violations
// (nil when clean). Spans from sequential jobs on one trace are grouped
// by their job root and verified per job.
func (v Verifier) Verify(spans []*Span) []Violation {
	var out []Violation
	if len(spans) == 0 {
		return nil
	}

	byID := make(map[int64]*Span, len(spans))
	var jobs []*Span
	for _, sp := range spans {
		if prev, dup := byID[sp.ID]; dup {
			out = append(out, Violation{InvDuplicateSpan,
				fmt.Sprintf("span id %d used by %s %q and %s %q", sp.ID, prev.Kind, prev.Name, sp.Kind, sp.Name)})
		}
		byID[sp.ID] = sp
		if sp.Kind == KindJob {
			jobs = append(jobs, sp)
		}
	}
	if len(jobs) == 0 {
		return append(out, Violation{InvJobMissing,
			fmt.Sprintf("%d spans but no %s span", len(spans), KindJob)})
	}

	for _, sp := range spans {
		if sp.End < sp.Start {
			out = append(out, Violation{InvSpanClock,
				fmt.Sprintf("%s %q (id %d) ends %dns before it starts", sp.Kind, sp.Name, sp.ID, sp.Start-sp.End)})
		}
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; !ok {
				out = append(out, Violation{InvOrphanSpan,
					fmt.Sprintf("%s %q (id %d) references missing parent %d", sp.Kind, sp.Name, sp.ID, sp.Parent)})
			}
		}
	}

	// Group spans under their job root and verify each job independently.
	perJob := make(map[int64][]*Span, len(jobs))
	for _, sp := range spans {
		if sp.Kind == KindJob {
			continue
		}
		root := sp.Parent
		// Walk up (bounded) in case of future nested parents.
		for i := 0; i < 8; i++ {
			p, ok := byID[root]
			if !ok || p.Kind == KindJob {
				break
			}
			root = p.Parent
		}
		perJob[root] = append(perJob[root], sp)
	}
	for _, job := range jobs {
		out = append(out, v.verifyJob(job, perJob[job.ID])...)
	}
	out = append(out, verifyServeCache(spans, jobs, byID)...)
	return out
}

// verifyServeCache checks the serve layer's central promise: a fully
// warm job — every folded segment served from the summary cache
// (cached_segments == segments > 0 on the job root) — performed zero
// map work, anywhere in its subtree, and one answered whole from a
// cached prefix (prefix_segments == segments) did not fold either.
// Nested engine job roots are climbed through, so a warm path that
// quietly launched an engine run cannot hide its map attempts under the
// inner root. Roots without the provenance attrs (ordinary engine jobs)
// are skipped, and the attrs must add up: cached + mapped == segments,
// prefix segments among the cached.
func verifyServeCache(spans, jobs []*Span, byID map[int64]*Span) []Violation {
	var out []Violation
	warm := make(map[int64]*Span)
	for _, job := range jobs {
		cached, ok := job.Lookup(AttrCachedSegments)
		if !ok {
			continue
		}
		segs, prefix := job.Attr(AttrSegments), job.Attr(AttrPrefixSegments)
		if mapped := job.Attr(AttrMappedSegments); cached+mapped != segs || prefix > cached {
			out = append(out, Violation{InvServeCache,
				fmt.Sprintf("job %q: %d cached (%d by prefix) + %d mapped segments != %d folded",
					job.Name, cached, prefix, mapped, segs)})
		}
		if segs > 0 && cached == segs {
			warm[job.ID] = job
		}
	}
	if len(warm) == 0 {
		return out
	}
	for _, sp := range spans {
		switch sp.Kind {
		case KindMapAttempt, KindMapParse, KindMapExec, KindFold:
		default:
			continue
		}
		// Climb the full ancestor chain (bounded): map work under any
		// warm serve root — however deeply nested — is a violation.
		for p, hops := sp.Parent, 0; p != 0 && hops < 16; hops++ {
			if job, ok := warm[p]; ok {
				if sp.Kind != KindFold || job.Attr(AttrPrefixSegments) == job.Attr(AttrSegments) {
					out = append(out, Violation{InvServeCache,
						fmt.Sprintf("job %q: warm-cache job contains %s %q (id %d) — cached answer redid work",
							job.Name, sp.Kind, sp.Name, sp.ID)})
				}
				break
			}
			ps, ok := byID[p]
			if !ok {
				break
			}
			p = ps.Parent
		}
	}
	return out
}

// verifyJob checks one job root and its children.
func (v Verifier) verifyJob(job *Span, children []*Span) []Violation {
	var out []Violation

	// Span containment: every child interval inside the job interval.
	for _, sp := range children {
		if sp.Start < job.Start-int64(containSlack) || sp.End > job.End+int64(containSlack) {
			out = append(out, Violation{InvSpanContainment,
				fmt.Sprintf("job %q: %s %q (id %d) [%d,%d] outside job [%d,%d]",
					job.Name, sp.Kind, sp.Name, sp.ID, sp.Start, sp.End, job.Start, job.End)})
		}
	}

	// cpu-bound: Σ task-attempt spans ≈ job span — the "sum of task
	// spans bounded by job wall times worker parallelism" invariant.
	// Attempt spans start after semaphore acquisition, so the sum of
	// concurrent attempt time cannot exceed wall × parallelism.
	if par := job.Attr(AttrParallelism); par > 0 {
		var attemptSum time.Duration
		for _, sp := range children {
			if sp.Kind == KindMapAttempt || sp.Kind == KindReduceAttempt {
				attemptSum += sp.Duration()
			}
		}
		bound := time.Duration(float64(job.Duration())*float64(par)*1.05) + cpuSlack*time.Duration(par)
		if attemptSum > bound {
			out = append(out, Violation{InvCPUBound,
				fmt.Sprintf("job %q: Σ attempt spans %v exceeds job wall %v × parallelism %d (+slack) = %v",
					job.Name, attemptSum, job.Duration(), par, bound)})
		}
	}

	// wire-bytes: actual shuffle bytes bounded by the legacy logical
	// framing. A tiny segment's header and key dictionary can outweigh
	// the per-record framing, so allow additive slack plus 25% — the
	// golden tests separately pin a 2× ceiling.
	if wire, logical := job.Attr(AttrWireBytes), job.Attr(AttrLogicalBytes); wire > 0 || logical > 0 {
		slack := logical / 4
		if slack < 1024 {
			slack = 1024
		}
		if wire > logical+slack {
			out = append(out, Violation{InvWireBytes,
				fmt.Sprintf("job %q: %d wire bytes exceed %d logical bytes + %d slack",
					job.Name, wire, logical, slack)})
		}
	}

	out = append(out, verifyRuns(job, children)...)
	out = append(out, verifyCommits(job, children)...)
	return append(out, verifyBatches(job, children)...)
}

// verifyBatches checks the map chunks: every parse and exec span
// carries the chunk's kept-event count (batch_records), which can never
// exceed its record count — grouping only filters — and the parse and
// exec spans of one task must agree on it, since pass two consumes
// exactly the events pass one kept (attempts of one task re-run the
// same deterministic chunk, so they agree too).
func verifyBatches(job *Span, children []*Span) []Violation {
	var out []Violation
	parse := make(map[int64]int64)
	for _, sp := range children {
		if sp.Kind != KindMapParse && sp.Kind != KindMapExec {
			continue
		}
		batch, ok := sp.Lookup(AttrBatchRecords)
		if !ok {
			out = append(out, Violation{InvBatchRecords,
				fmt.Sprintf("job %q: %s %q carries no %s", job.Name, sp.Kind, sp.Name, AttrBatchRecords)})
			continue
		}
		if sp.Kind != KindMapParse {
			continue
		}
		if recs := sp.Attr(AttrRecords); batch > recs {
			out = append(out, Violation{InvBatchRecords,
				fmt.Sprintf("job %q: %s %q kept %d batch events from %d records",
					job.Name, sp.Kind, sp.Name, batch, recs)})
		}
		parse[sp.Attr(AttrTask)] = batch
	}
	for _, sp := range children {
		if sp.Kind != KindMapExec {
			continue
		}
		batch, ok := sp.Lookup(AttrBatchRecords)
		task := sp.Attr(AttrTask)
		if want, seen := parse[task]; ok && seen && want != batch {
			out = append(out, Violation{InvBatchRecords,
				fmt.Sprintf("job %q: task %d parsed %d batch events but executed %d",
					job.Name, task, want, batch)})
		}
	}
	return out
}

// runKey identifies one committed spill run: the winning attempt's
// output for one partition.
type runKey struct {
	task, attempt, part int64
}

func (k runKey) String() string {
	return fmt.Sprintf("task %d attempt %d part %d", k.task, k.attempt, k.part)
}

// verifyRuns matches run_commit events against seg_decode spans: every
// run a winning attempt committed must be decoded by its reducer exactly
// once, and nothing may be decoded that was never committed. This is the
// invariant whose absence let the PR 1 unsorted-run bug survive to the
// golden digests.
func verifyRuns(job *Span, children []*Span) []Violation {
	var out []Violation
	committed := make(map[runKey]int)
	decoded := make(map[runKey]int)
	for _, sp := range children {
		k := runKey{sp.Attr(AttrTask), sp.Attr(AttrAttempt), sp.Attr(AttrPart)}
		switch sp.Kind {
		case KindRunCommit:
			committed[k]++
		case KindSegDecode:
			decoded[k]++
		}
	}
	if len(committed) == 0 && len(decoded) == 0 {
		return nil
	}
	for _, k := range sortedRunKeys(committed) {
		switch n := decoded[k]; {
		case n == 0:
			out = append(out, Violation{InvRunMergedOnce,
				fmt.Sprintf("job %q: committed run (%s) never decoded by a reducer", job.Name, k)})
		case n > 1:
			out = append(out, Violation{InvRunMergedOnce,
				fmt.Sprintf("job %q: committed run (%s) decoded %d times", job.Name, k, n)})
		}
	}
	for _, k := range sortedRunKeys(decoded) {
		if committed[k] == 0 {
			out = append(out, Violation{InvRunUnknown,
				fmt.Sprintf("job %q: reducer decoded run (%s) that no commit produced", job.Name, k)})
		}
	}
	return out
}

// verifyCommits checks the task-commit protocol: at most one commit per
// task (speculation losers must never commit), and every commit must be
// backed by an attempt span for the same task+attempt with an ok
// outcome.
func verifyCommits(job *Span, children []*Span) []Violation {
	var out []Violation
	type taskKey struct {
		kind string
		task int64
	}
	commits := make(map[taskKey][]int64)
	attempts := make(map[taskKey]map[int64]string)
	for _, sp := range children {
		switch sp.Kind {
		case KindCommit:
			k := taskKey{sp.Tag(TagPhase), sp.Attr(AttrTask)}
			commits[k] = append(commits[k], sp.Attr(AttrAttempt))
		case KindMapAttempt, KindReduceAttempt:
			phase := "map"
			if sp.Kind == KindReduceAttempt {
				phase = "reduce"
			}
			k := taskKey{phase, sp.Attr(AttrTask)}
			if attempts[k] == nil {
				attempts[k] = make(map[int64]string)
			}
			attempts[k][sp.Attr(AttrAttempt)] = sp.Tag(TagOutcome)
		}
	}
	keys := make([]taskKey, 0, len(commits))
	for k := range commits {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].task < keys[j].task
	})
	for _, k := range keys {
		atts := commits[k]
		if len(atts) > 1 {
			out = append(out, Violation{InvSingleCommit,
				fmt.Sprintf("job %q: %s task %d committed %d times (attempts %v) — a speculation loser committed",
					job.Name, k.kind, k.task, len(atts), atts)})
		}
		for _, att := range atts {
			outcome, ok := attempts[k][att]
			if !ok {
				out = append(out, Violation{InvCommitNoAttempt,
					fmt.Sprintf("job %q: %s task %d commit references attempt %d with no attempt span",
						job.Name, k.kind, k.task, att)})
			} else if outcome != "" && outcome != "ok" {
				out = append(out, Violation{InvCommitNoAttempt,
					fmt.Sprintf("job %q: %s task %d committed attempt %d whose outcome is %q",
						job.Name, k.kind, k.task, att, outcome)})
			}
		}
	}
	return out
}

// sortedRunKeys returns map keys in deterministic order.
func sortedRunKeys(m map[runKey]int) []runKey {
	keys := make([]runKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.task != b.task {
			return a.task < b.task
		}
		if a.attempt != b.attempt {
			return a.attempt < b.attempt
		}
		return a.part < b.part
	})
	return keys
}

// Check runs Verify and folds any violations into one error.
func (v Verifier) Check(spans []*Span) error {
	viols := v.Verify(spans)
	if len(viols) == 0 {
		return nil
	}
	msgs := make([]string, len(viols))
	for i, viol := range viols {
		msgs[i] = viol.String()
	}
	return fmt.Errorf("obs: trace failed %d invariant(s):\n  %s", len(viols), strings.Join(msgs, "\n  "))
}
