package bench

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/sym"
	"repro/internal/wire"
)

// sortedGroups runs mapFn through sortShuffle and returns every group
// reduce received, in call order.
func sortedGroups(t *testing.T, segs []*mapreduce.Segment, mapFn mapreduce.MapFunc) (keys []string, groups [][]mapreduce.Shuffled) {
	t.Helper()
	_, err := sortShuffle(segs, mapreduce.Config{Parallelism: 3}, mapFn, func(key string, values []mapreduce.Shuffled) error {
		keys = append(keys, key)
		groups = append(groups, slices.Clone(values))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, groups
}

// TestSortShuffleOrder: the sort binary hands reduce every pair once, in
// (key, task, emit index) order, keys and values with tabs, newlines,
// NULs and high bytes included, a key that prefixes another and an
// empty key and value among them.
func TestSortShuffleOrder(t *testing.T) {
	awkward := []string{"", "a", "a\tb", "a\nb", "ab", "\x00", "\xff\xfe", "key with spaces", "a\t"}
	segs := make([]*mapreduce.Segment, 4)
	for i := range segs {
		segs[i] = &mapreduce.Segment{ID: i, Records: make([][]byte, 30)}
	}
	// Each record emits one or two pairs, a random awkward key each,
	// valued by where it came from so the order can be read back.
	mapFn := func(task int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
		rr := rand.New(rand.NewSource(int64(task)))
		for i := range seg.Records {
			for range 1 + rr.Intn(2) {
				emit(awkward[rr.Intn(len(awkward))], int64(i), []byte(strconv.Itoa(task)+"\t\n"+strconv.Itoa(i)))
			}
		}
		return nil
	}
	type pair struct {
		key         string
		task, index int
		value       []byte
	}
	var want []pair
	for task, seg := range segs {
		index := 0
		_ = mapFn(task, seg, func(key string, _ int64, value []byte) {
			want = append(want, pair{key, task, index, value})
			index++
		})
	}
	slices.SortFunc(want, func(a, b pair) int {
		return cmp.Or(strings.Compare(a.key, b.key), cmp.Compare(a.task, b.task), cmp.Compare(a.index, b.index))
	})
	keys, groups := sortedGroups(t, segs, mapFn)
	var got []pair
	for g, key := range keys {
		if g > 0 && keys[g-1] >= key {
			t.Fatalf("group %q after %q: keys out of order or split", key, keys[g-1])
		}
		for _, v := range groups[g] {
			got = append(got, pair{key, v.MapperID, int(v.RecordID), v.Value})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs came back, %d went in", len(got), len(want))
	}
	for i := range want {
		if got[i].key != want[i].key || got[i].task != want[i].task || got[i].index != want[i].index ||
			!bytes.Equal(got[i].value, want[i].value) {
			t.Fatalf("pair %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

type sessState struct {
	Prev   sym.SymPred[int64]
	Count  sym.SymInt
	Counts sym.SymIntVector
}

func (s *sessState) Fields() []sym.Value { return []sym.Value{&s.Prev, &s.Count, &s.Counts} }

// sessionQuery counts the events of each session, a session ending at a
// gap of 100 or more: a UDA whose answer depends on event order.
func sessionQuery() *core.Query[*sessState, int64, []int64] {
	return &core.Query[*sessState, int64, []int64]{
		Name: "sessions",
		GroupBy: func(rec []byte) (string, int64, bool) {
			key, ts, ok := strings.Cut(string(rec), "\t")
			v, err := strconv.ParseInt(ts, 10, 64)
			return key, v, ok && err == nil
		},
		NewState: func() *sessState {
			return &sessState{
				Prev:  sym.NewSymPred(func(prev, cur int64) bool { return cur-prev < 100 }, sym.Int64Codec(), math.MinInt64/2),
				Count: sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *sessState, ts int64) {
			if s.Prev.EvalPred(ctx, ts) {
				s.Count.Inc()
			} else {
				s.Counts.PushInt(&s.Count)
				s.Count.Set(1)
			}
			s.Prev.SetValue(ts)
		},
		Result: func(_ string, s *sessState) []int64 {
			return append(slices.Clone(s.Counts.Elems()), s.Count.Get())
		},
		EncodeEvent: func(e *wire.Encoder, v int64) { e.Varint(v) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
}

// TestSortShuffleOrderSensitive: the order-sensitive session UDA,
// shuffled through the sort binary between the baseline's own map and
// reduce, answers what the sequential engine does.
func TestSortShuffleOrderSensitive(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	segs := make([]*mapreduce.Segment, 7)
	for i := range segs {
		segs[i] = &mapreduce.Segment{ID: i}
	}
	ts := map[string]int64{}
	for i := range 400 {
		k := []string{"ua", "ub", "uc"}[r.Intn(3)]
		ts[k] += int64(r.Intn(150))
		seg := segs[i*len(segs)/400]
		seg.Records = append(seg.Records, []byte(k+"\t"+strconv.FormatInt(ts[k], 10)))
	}
	q := sessionQuery()
	seq, err := core.RunSequential(q, segs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewBaseline(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]int64{}
	if _, err := sortShuffle(segs, mapreduce.Config{Parallelism: 2}, b.Map, func(key string, values []mapreduce.Shuffled) error {
		res, err := b.Reduce(key, values)
		got[key] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Results, got) {
		t.Fatalf("order lost through the sort binary:\nseq:  %v\nsort: %v", seq.Results, got)
	}
}

// TestFig4NeedsSortBinary: with no sort binary to run, Fig 4 fails and
// says so, rather than timing some other shuffle.
func TestFig4NeedsSortBinary(t *testing.T) {
	t.Setenv("PATH", "")
	_, err := Fig4(Scale{Records: 500})
	if err == nil || !strings.Contains(err.Error(), "sort") {
		t.Fatalf("Fig4 without a sort binary: %v, want an error naming sort", err)
	}
}

func TestParseSortedLineErrors(t *testing.T) {
	for _, bad := range []string{"", "onlyone", "zz\t00\t00\t00", "61\t00\t00\tzz", "61\txx\t00\t61", "61\t-1\t00\t61"} {
		if _, _, err := parseSortedLine([]byte(bad)); err == nil {
			t.Errorf("parseSortedLine(%q): expected error", bad)
		}
	}
	key, v, err := parseSortedLine([]byte("61\t00000000000000000002\t00000000000000000003\t62"))
	if err != nil {
		t.Fatal(err)
	}
	if key != "a" || v.MapperID != 2 || v.RecordID != 3 || string(v.Value) != "b" {
		t.Fatalf("parsed %q %+v", key, v)
	}
}
