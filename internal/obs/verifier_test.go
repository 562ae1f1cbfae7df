package obs

import (
	"strings"
	"testing"
	"time"
)

// goodTrace builds a minimal but complete healthy trace: one job with
// two map tasks (task 1 speculated — attempt 1 won, the backup attempt 2
// ran but never committed), one reduce task, two committed runs each
// decoded once, then grouped and reduced as two groups. Every breaker in the table
// below starts from a copy of this and breaks exactly one invariant.
func goodTrace() []*Span {
	base := int64(1_000_000_000)
	ms := int64(time.Millisecond)
	sp := func(id, parent int64, kind, name string, startMS, endMS int64, attrs []attr, tags []tag) *Span {
		return withSlots(&Span{ID: id, Parent: parent, Kind: kind, Name: name,
			Start: base + startMS*ms, End: base + endMS*ms}, attrs, tags)
	}
	return []*Span{
		sp(1, 0, KindJob, "test-job", 0, 100,
			[]attr{{AttrParallelism, 4}, {AttrWireBytes, 900}, {AttrLogicalBytes, 1000}}, nil),
		// Map task 0: one clean attempt, committed, one run for part 0.
		sp(2, 1, KindMapAttempt, "map-0", 1, 30,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}, {AttrRecords, 10}}, []tag{{TagOutcome, "ok"}}),
		sp(3, 1, KindCommit, "map-0", 30, 30,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}}, []tag{{TagPhase, "map"}}),
		sp(4, 1, KindRunCommit, "map-0", 30, 30,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}, {AttrPart, 0}, {AttrBytes, 450}}, nil),
		// Map task 1: attempt 1 won; speculative attempt 2 finished later
		// and lost the commit race — it has a span but no commit.
		sp(5, 1, KindMapAttempt, "map-1", 1, 40,
			[]attr{{AttrTask, 1}, {AttrAttempt, 1}, {AttrRecords, 12}}, []tag{{TagOutcome, "ok"}}),
		sp(6, 1, KindMapAttempt, "map-1", 20, 60,
			[]attr{{AttrTask, 1}, {AttrAttempt, 2}, {AttrRecords, 12}},
			[]tag{{TagOutcome, "ok"}, {TagSpeculative, "1"}}),
		sp(7, 1, KindCommit, "map-1", 40, 40,
			[]attr{{AttrTask, 1}, {AttrAttempt, 1}}, []tag{{TagPhase, "map"}}),
		sp(8, 1, KindRunCommit, "map-1", 40, 40,
			[]attr{{AttrTask, 1}, {AttrAttempt, 1}, {AttrPart, 0}, {AttrBytes, 450}}, nil),
		// Reduce task 0: decodes both committed runs exactly once, groups
		// them and reduces the two groups.
		sp(9, 1, KindSegDecode, "part-0", 45, 46,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}, {AttrPart, 0}, {AttrBytes, 450}}, nil),
		sp(10, 1, KindSegDecode, "part-0", 46, 47,
			[]attr{{AttrTask, 1}, {AttrAttempt, 1}, {AttrPart, 0}, {AttrBytes, 450}}, nil),
		sp(11, 1, KindReduceAttempt, "reduce-0", 45, 90,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}, {AttrGroups, 2}}, []tag{{TagOutcome, "ok"}}),
		sp(12, 1, KindCommit, "reduce-0", 90, 90,
			[]attr{{AttrTask, 0}, {AttrAttempt, 1}}, []tag{{TagPhase, "reduce"}}),
		sp(13, 1, KindMerge, "part-0", 47, 50,
			[]attr{{AttrPart, 0}, {AttrRuns, 2}}, nil),
		sp(14, 1, KindCompose, "part-0", 50, 88,
			[]attr{{AttrPart, 0}, {AttrGroups, 2}, {AttrValues, 5}}, nil),
		// Map task 0's chunk: 10 records, 8 kept by grouping, all 8
		// executed.
		sp(15, 1, KindMapParse, "parse-0", 1, 10,
			[]attr{{AttrTask, 0}, {AttrRecords, 10}, {AttrGroups, 2}, {AttrBatchRecords, 8}}, nil),
		sp(16, 1, KindMapExec, "exec-0", 10, 28,
			[]attr{{AttrTask, 0}, {AttrGroups, 2}, {AttrBatchRecords, 8}}, nil),
	}
}

// attr and tag are a span attribute and tag, for building test spans.
type (
	attr struct {
		k AttrKey
		v int64
	}
	tag struct {
		k TagKey
		v string
	}
)

// withSlots replaces sp's attributes and tags with the given ones.
func withSlots(sp *Span, attrs []attr, tags []tag) *Span {
	sp.attrs, sp.has, sp.tags = [numAttrKeys]int64{}, 0, [numTagKeys]string{}
	for _, a := range attrs {
		sp.SetAttr(a.k, a.v)
	}
	for _, t := range tags {
		sp.SetTag(t.k, t.v)
	}
	return sp
}

// withoutAttr drops sp's attribute k.
func withoutAttr(sp *Span, k AttrKey) { sp.attrs[k], sp.has = 0, sp.has&^(1<<k) }

func TestVerifierAcceptsHealthyTrace(t *testing.T) {
	if err := (Verifier{}).Check(goodTrace()); err != nil {
		t.Fatalf("healthy trace rejected: %v", err)
	}
}

func TestVerifierAcceptsEmptyTrace(t *testing.T) {
	if viols := (Verifier{}).Verify(nil); viols != nil {
		t.Fatalf("empty trace produced violations: %v", viols)
	}
}

// TestVerifierCatchesBrokenTraces is the hand-broken trace table: each
// breaker corrupts a healthy trace in one specific way and must trip
// exactly the named invariant.
func TestVerifierCatchesBrokenTraces(t *testing.T) {
	ms := int64(time.Millisecond)
	cases := []struct {
		name      string
		invariant string
		breaker   func([]*Span) []*Span
	}{
		{"double-merged run", InvRunMergedOnce, func(s []*Span) []*Span {
			// Reducer decodes map-0's committed run a second time.
			dup := *s[9]
			dup.ID = 99
			return append(s, &dup)
		}},
		{"committed run never merged", InvRunMergedOnce, func(s []*Span) []*Span {
			// Drop the seg_decode of map-1's run (id 10).
			return append(s[:9:9], s[10:]...)
		}},
		{"decode of unknown run", InvRunUnknown, func(s []*Span) []*Span {
			ghost := *s[9]
			ghost.ID = 99
			withSlots(&ghost, []attr{{AttrTask, 7}, {AttrAttempt, 1}, {AttrPart, 0}, {AttrBytes, 10}}, nil)
			return append(s, &ghost)
		}},
		{"orphan span", InvOrphanSpan, func(s []*Span) []*Span {
			s[13].Parent = 424242
			return s
		}},
		{"bytes inflation", InvWireBytes, func(s []*Span) []*Span {
			s[0].SetAttr(AttrWireBytes, s[0].Attr(AttrLogicalBytes)*2+4096)
			return s
		}},
		{"speculation loser commits", InvSingleCommit, func(s []*Span) []*Span {
			// The losing backup attempt (task 1 attempt 2) also commits.
			c := *s[6]
			c.ID = 99
			c.Kind = KindCommit
			withSlots(&c, []attr{{AttrTask, 1}, {AttrAttempt, 2}}, []tag{{TagPhase, "map"}})
			return append(s, &c)
		}},
		{"commit without attempt", InvCommitNoAttempt, func(s []*Span) []*Span {
			s[2].SetAttr(AttrAttempt, 9)
			return s
		}},
		{"commit of failed attempt", InvCommitNoAttempt, func(s []*Span) []*Span {
			s[1].SetTag(TagOutcome, "error")
			return s
		}},
		{"chunk keeps more than it read", InvBatchRecords, func(s []*Span) []*Span {
			s[14].SetAttr(AttrBatchRecords, 11)
			s[15].SetAttr(AttrBatchRecords, 11)
			return s
		}},
		{"exec disagrees with parse", InvBatchRecords, func(s []*Span) []*Span {
			s[15].SetAttr(AttrBatchRecords, 7)
			return s
		}},
		{"parse span without batch count", InvBatchRecords, func(s []*Span) []*Span {
			withoutAttr(s[14], AttrBatchRecords)
			return s
		}},
		{"exec span without batch count", InvBatchRecords, func(s []*Span) []*Span {
			withoutAttr(s[15], AttrBatchRecords)
			return s
		}},
		{"clock runs backwards", InvSpanClock, func(s []*Span) []*Span {
			s[1].Start, s[1].End = s[1].End, s[1].Start
			return s
		}},
		{"span escapes job interval", InvSpanContainment, func(s []*Span) []*Span {
			s[10].End = s[0].End + 50*ms
			return s
		}},
		{"task time exceeds cluster", InvCPUBound, func(s []*Span) []*Span {
			// One attempt claims 10× the whole job's wall-clock budget.
			s[0].SetAttr(AttrParallelism, 1)
			s[1].Start = s[0].Start
			s[1].End = s[0].Start + 10*(s[0].End-s[0].Start)
			s[0].End = s[1].End + ms // keep containment satisfied
			return s
		}},
		{"duplicate span id", InvDuplicateSpan, func(s []*Span) []*Span {
			s[13].ID = s[12].ID
			return s
		}},
		{"spans without a job", InvJobMissing, func(s []*Span) []*Span {
			return s[1:]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spans := tc.breaker(goodTrace())
			viols := (Verifier{}).Verify(spans)
			if len(viols) == 0 {
				t.Fatalf("broken trace passed verification")
			}
			for _, v := range viols {
				if v.Invariant == tc.invariant {
					return
				}
			}
			t.Fatalf("expected %s violation, got: %v", tc.invariant, viols)
		})
	}
}

func TestCheckErrorNamesInvariant(t *testing.T) {
	spans := goodTrace()
	spans[0].SetAttr(AttrWireBytes, 1<<40)
	err := (Verifier{}).Check(spans)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), InvWireBytes) {
		t.Fatalf("error does not name the invariant: %v", err)
	}
}

// TestVerifierServeCache pins the serve-cache invariant's three rules on
// minimal serve traces: the provenance attrs add up (prefix segments
// among the cached), a fully cached job has no map work under it, and a
// job answered whole from a cached prefix has no fold span either —
// while one that resumed from a prefix and folded the rest does.
func TestVerifierServeCache(t *testing.T) {
	job := func(segs, cached, prefix, mapped int64, kinds ...string) []*Span {
		spans := []*Span{withSlots(&Span{ID: 1, Kind: KindJob, Name: "serve/G1/github", Start: 10, End: 100},
			[]attr{{AttrSegments, segs}, {AttrCachedSegments, cached}, {AttrPrefixSegments, prefix}, {AttrMappedSegments, mapped}}, nil)}
		for i, k := range kinds {
			spans = append(spans, &Span{ID: int64(2 + i), Parent: 1, Kind: k, Start: 20, End: 30})
		}
		return spans
	}
	for _, tc := range []struct {
		name  string
		spans []*Span
		ok    bool
	}{
		{"answered from a prefix", job(8, 8, 8, 0, KindQueue), true},
		{"answered from a prefix, yet folded", job(8, 8, 8, 0, KindQueue, KindFold), false},
		{"resumed from a prefix, folded the rest", job(9, 9, 8, 0, KindQueue, KindFold), true},
		{"warm from parts", job(8, 8, 0, 0, KindQueue, KindFold), true},
		{"warm, yet mapped", job(8, 8, 0, 0, KindQueue, KindMapAttempt, KindFold), false},
		{"more by prefix than cached", job(8, 6, 7, 2, KindQueue, KindFold), false},
		{"cached and mapped do not add up", job(8, 5, 5, 2, KindQueue, KindFold), false},
	} {
		viols := (Verifier{}).Verify(tc.spans)
		if ok := len(viols) == 0; ok != tc.ok {
			t.Errorf("%s: violations %v, want ok=%v", tc.name, viols, tc.ok)
		}
		for _, v := range viols {
			if v.Invariant != InvServeCache {
				t.Errorf("%s: unexpected %s violation: %s", tc.name, v.Invariant, v.Detail)
			}
		}
	}
}
