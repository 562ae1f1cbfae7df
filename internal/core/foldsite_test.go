package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// sessionInput is n key\ttimestamp lines over the given number of keys,
// timestamps rising so sessions open and close.
func sessionInput(r *rand.Rand, n, keys int) []string {
	lines := make([]string, n)
	ts := int64(0)
	for i := range lines {
		ts += int64(r.Intn(200))
		lines[i] = fmt.Sprintf("k%d\t%d", r.Intn(keys), ts)
	}
	return lines
}

// partitionGroups maps every segment with the engine's own mapper and
// returns one reduce partition's worth of groups: keys in sorted order,
// each with its bundles in mapper order.
func partitionGroups(t *testing.T, c *Compiled[*sessState, int64, []int64], segs []*mapreduce.Segment) (keys []string, groups map[string][]mapreduce.Shuffled) {
	t.Helper()
	mapFn := c.Mapper(nil)
	groups = map[string][]mapreduce.Shuffled{}
	for i, seg := range segs {
		emit := func(key string, value []byte) {
			if cap(value) != len(value) {
				t.Errorf("mapper %d key %q: emitted value has %d spare bytes a holder could append into", i, key, cap(value)-len(value))
			}
			// Emit's caller owns value only until it returns.
			groups[key] = append(groups[key], mapreduce.Shuffled{MapperID: i, Value: slices.Clone(value)})
		}
		if err := mapFn(i, seg, emit); err != nil {
			t.Fatal(err)
		}
	}
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

// TestGroupFolderRetryAfterMidPartitionFailure: a reduce attempt that
// dies inside a group — one bundle already folded, the next corrupt —
// leaves its site dirty; the retry folds the whole partition again on
// that same site and must produce the sequential results.
func TestGroupFolderRetryAfterMidPartitionFailure(t *testing.T) {
	q := sessionQuery()
	segs := makeSegments(sessionInput(rand.New(rand.NewSource(21)), 900, 7), 4)
	want, err := RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	keys, groups := partitionGroups(t, c, segs)
	site := newGroupFolder(c.Schema())
	for failAt := range keys {
		for i, key := range keys {
			values := groups[key]
			if i == failAt {
				if len(values) < 2 {
					t.Fatalf("key %q has %d bundles; the test wants a failure after the first", key, len(values))
				}
				values = append([]mapreduce.Shuffled(nil), values...)
				last := &values[len(values)-1]
				last.Value = last.Value[:len(last.Value)-1]
			}
			_, err := site.fold(values)
			if (err != nil) != (i == failAt) {
				t.Fatalf("failAt %d, group %d: err = %v", failAt, i, err)
			}
			if err != nil {
				break // the attempt is over
			}
		}
		got := map[string][]int64{}
		for _, key := range keys {
			final, err := site.fold(groups[key])
			if err != nil {
				t.Fatalf("retry after failing in group %d: key %q: %v", failAt, key, err)
			}
			got[key] = q.Result(key, final)
		}
		if !reflect.DeepEqual(got, want.Results) {
			t.Fatalf("retry after failing in group %d diverges from sequential", failAt)
		}
	}
}

// TestReduceAttemptsShareASite: with every reduce task's early attempts
// failed by the fault plan — before the first group, or mid-partition
// after some groups have folded on the site — the attempt that succeeds
// runs on the site its task kept, and the job's answer is the
// fault-free one.
func TestReduceAttemptsShareASite(t *testing.T) {
	q := sessionQuery()
	segs := makeSegments(sessionInput(rand.New(rand.NewSource(22)), 1200, 40), 5)
	want, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []mapreduce.FaultPoint{mapreduce.PointReduceMerge, mapreduce.PointReduceMid} {
		plan := mapreduce.NewFaultPlan(7).WithPoints(pt).
			WithKinds(mapreduce.KindError, mapreduce.KindKill).WithRate(1)
		reg := obs.NewRegistry()
		got, err := RunSymple(q, segs, mapreduce.Config{NumReducers: 3, MaxAttempts: 3, Faults: plan, Registry: reg})
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		if n := reg.Counter(mapreduce.MetricReduceAttempts).Value(); n != 9 || plan.Injected() != 6 {
			t.Fatalf("%v: %d reduce attempts, %d faults for 3 tasks: want every non-final attempt failed",
				pt, n, plan.Injected())
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%v: results under reduce retries diverge from the fault-free run", pt)
		}
	}
}
