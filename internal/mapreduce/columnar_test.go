package mapreduce

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

func parseDecimal(b []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(b), 10, 64)
	return v, err == nil
}

// testPlan types four leading fields: an int, a dictionary string, a
// field nobody reads, and a byte-wide flag.
func testPlan(parse func([]byte) (int64, bool)) *ColPlan {
	return &ColPlan{Fields: []ColSpec{
		{Kind: ColInt, Parse: parse},
		{Kind: ColDict},
		{Kind: ColSkip},
		{Kind: ColByte, Parse: parse},
	}}
}

func TestBuildIndexDenseAndRagged(t *testing.T) {
	records := [][]byte{
		[]byte("100\trepo/a\tx\t1\tpayload"),
		[]byte("short"),                     // too few fields, and not an int
		[]byte("1e3\trepo/a\tx\t1"),         // int field its parser rejects
		[]byte("101\trepo/b\tx\t0"),         // no tail at all
		[]byte("102\trepo/a\tx\t256\ttail"), // flag outside a byte
		[]byte("103\trepo/a\tx\t-1\ttail"),  // flag outside a byte
		[]byte(""),                          // empty record: one empty field
		nil,                                 // nil record: no field at all
		[]byte("104\trepo/c\t\t255\t\t"),    // empty skipped field, empty tail fields
		[]byte("105\trepo/b\tx\t7\ta\tb\tc"),
	}
	plan := testPlan(parseDecimal)
	seg := &Segment{Records: records}
	c := seg.Index(plan.Read(0, 1, 2, 3), nil)
	if len(c.Records) != len(records) {
		t.Fatalf("rows %d, want %d", len(c.Records), len(records))
	}
	// A row is ragged for a view when any column it reads could not type
	// it; each column keeps its own list.
	if want := []int32{1, 2, 4, 5, 6, 7}; !slices.Equal(c.Ragged, want) {
		t.Fatalf("ragged rows %v, want %v", c.Ragged, want)
	}
	if &c.Records[0] != &records[0] {
		t.Fatal("the view does not alias the segment's records")
	}
	for f, want := range [][]int32{{1, 2, 6, 7}, {1, 6, 7}, {1, 6, 7}, {1, 4, 5, 6, 7}} {
		if got := c.Cols[f].Ragged; !slices.Equal(got, want) {
			t.Errorf("column %d could not type rows %v, want %v", f, got, want)
		}
	}
	if dense := len(c.Records) - len(c.Ragged); dense != 4 {
		t.Fatalf("dense = %d, want 4", dense)
	}
	// Vectors hold an entry per row; a row a column could not type holds 0.
	if want := []int64{100, 0, 0, 101, 102, 103, 0, 0, 104, 105}; !slices.Equal(c.Cols[0].Ints, want) {
		t.Errorf("int column %v, want %v", c.Cols[0].Ints, want)
	}
	// Dictionary codes dedupe in first-use order over the rows the column
	// typed.
	if want := []string{"repo/a", "repo/b", "repo/c"}; !slices.Equal(c.Cols[1].Dict, want) {
		t.Errorf("dictionary %v, want %v", c.Cols[1].Dict, want)
	}
	if want := []uint32{0, 0, 0, 1, 0, 0, 0, 0, 2, 1}; !slices.Equal(c.Cols[1].Codes, want) {
		t.Errorf("codes %v, want %v", c.Cols[1].Codes, want)
	}
	if want := []uint8{1, 0, 1, 0, 0, 0, 0, 0, 255, 7}; !slices.Equal(c.Cols[3].Bytes, want) {
		t.Errorf("byte column %v, want %v", c.Cols[3].Bytes, want)
	}
	if sk := c.Cols[2]; sk.Ints != nil || sk.Bytes != nil || sk.Codes != nil || sk.Dict != nil {
		t.Errorf("skipped field stored something: %+v", sk)
	}
	// A view of fewer columns is ragged only where they are.
	if got, want := seg.Index(plan.Read(1), nil).Ragged, []int32{1, 6, 7}; !slices.Equal(got, want) {
		t.Errorf("dictionary-only view ragged at %v, want %v", got, want)
	}
	// The index is resident with the segment, so the vectors carry no
	// growth slack past the rows.
	if got := cap(c.Cols[0].Ints); got != len(c.Records) {
		t.Errorf("int column cap %d for %d rows", got, len(c.Records))
	}
}

// TestBuildIndexDictAliasesRecords pins the memory contract: a dictionary
// entry is a view of the record it was first seen in, not a copy.
func TestBuildIndexDictAliasesRecords(t *testing.T) {
	rec := []byte("7\tsome-key\tx\t1")
	c := (&Segment{Records: [][]byte{rec}}).Index(testPlan(parseDecimal).Read(1), nil)
	if got, want := unsafe.StringData(c.Cols[1].Dict[0]), &rec[2]; got != want {
		t.Fatalf("dictionary entry at %p, record bytes at %p", got, want)
	}
}

// TestBuildIndexDictSizing: a dictionary is sized once from its first
// stretch of rows — to the segment when nearly every row brings a new
// entry, and not at all when the stretch repeats — grows past that when
// the stretch misled it, and ends with no slack past its entries but
// the allocator's rounding.
func TestBuildIndexDictSizing(t *testing.T) {
	const rows = 5000
	plan := &ColPlan{Fields: []ColSpec{{Kind: ColDict}, {Kind: ColDict}, {Kind: ColDict}}}
	var recs [][]byte
	late := func(i int) string { return "r" + strconv.Itoa(max(i-dictProbe, 0)) }
	for i := range rows {
		recs = append(recs, []byte("u"+strconv.Itoa(i)+"\tg"+strconv.Itoa(i%50)+"\t"+late(i)))
	}
	c := (&Segment{Records: recs}).Index(plan.Read(0, 1, 2), nil)
	for f, want := range []int{rows, 50, rows - dictProbe} {
		if d := c.Cols[f].Dict; len(d) != want || cap(d) > want+want/8+8 {
			t.Errorf("column %d: %d entries, capacity %d, want %d", f, len(d), cap(d), want)
		}
	}
	for i := 0; i < rows; i += 97 {
		for f, want := range []string{"u" + strconv.Itoa(i), "g" + strconv.Itoa(i%50), late(i)} {
			if got := c.Cols[f].Dict[c.Cols[f].Codes[i]]; got != want {
				t.Fatalf("row %d column %d decodes to %q, want %q", i, f, got, want)
			}
		}
	}
}

func TestSegmentIndexResidentUntilRecordsChange(t *testing.T) {
	seg := &Segment{Records: [][]byte{[]byte("1\ta\tx\t1"), []byte("2\tb\tx\t0")}}
	plan, other := testPlan(parseDecimal), testPlan(parseDecimal)
	first := seg.Index(plan.Read(0, 3), nil)
	if first == nil || len(first.Records) != 2 {
		t.Fatalf("first touch: %+v", first)
	}
	if again := seg.Index(plan.Read(0, 3), nil); again != first {
		t.Fatal("second touch rebuilt a resident index")
	}
	// A read of another column builds that column and leaves the others
	// as they were.
	ints := &first.Cols[0].Ints[0]
	if c := seg.Index(plan.Read(0, 1), nil); &c.Cols[0].Ints[0] != ints || c.Cols[1].Dict[1] != "b" {
		t.Fatalf("second column: %+v", c)
	}
	// A foreign plan neither reads the resident index nor evicts it.
	if got := seg.Index(other.Read(0), nil); got != nil {
		t.Fatalf("foreign plan was served an index built under another: %+v", got)
	}
	if again := seg.Index(plan.Read(0, 3), nil); again != first {
		t.Fatal("a foreign plan's touch evicted the resident index")
	}
	// Replaced records: the stale index must not be served.
	seg.Records = [][]byte{[]byte("9\tz\tx\t1")}
	rebuilt := seg.Index(plan.Read(0, 3), nil)
	if rebuilt == first || len(rebuilt.Records) != 1 || rebuilt.Cols[0].Ints[0] != 9 {
		t.Fatalf("index after Records were replaced: %+v", rebuilt)
	}
}

// TestSegmentIndexConcurrentFirstTouch: jobs racing to a segment's first
// touch, each reading its own columns, get one index whose every column
// is built once (the parser runs once per typed row of a column), and
// jobs reading the same columns share one view. Run under -race by
// scripts/verify.sh.
func TestSegmentIndexConcurrentFirstTouch(t *testing.T) {
	const rows = 500
	seg := &Segment{}
	for i := 0; i < rows; i++ {
		seg.Records = append(seg.Records, []byte(strconv.Itoa(i)+"\tk"+strconv.Itoa(i%7)+"\tx\t1\tfiller"))
	}
	var parses [4]atomic.Int64
	plan := testPlan(nil)
	for f := range plan.Fields {
		if plan.Fields[f].Kind != ColDict && plan.Fields[f].Kind != ColSkip {
			plan.Fields[f].Parse = func(b []byte) (int64, bool) {
				parses[f].Add(1)
				return parseDecimal(b)
			}
		}
	}
	reads := []ColRead{plan.Read(0), plan.Read(1), plan.Read(3), plan.Read(0, 1),
		plan.Read(1, 3), plan.Read(0, 3), plan.Read(0, 1, 3), plan.Read(3)}
	sink := obs.NewMemSink()
	trace := obs.NewTrace(sink)
	job := trace.StartJob("first-touch")
	got := make([]*Columnar, len(reads))
	var wg sync.WaitGroup
	for i, r := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parse := trace.Start(obs.KindMapParse, "parse-"+strconv.Itoa(i)).Attr(obs.AttrBatchRecords, 0)
			got[i] = seg.Index(r, parse)
			parse.End()
		}()
	}
	wg.Wait()
	job.End()
	for i, c := range got {
		if c == nil || len(c.Ragged) != 0 || len(c.Records) != rows {
			t.Fatalf("goroutine %d saw index %+v", i, c)
		}
		if reads[i].Fields&(1<<1) != 0 && &c.Cols[1].Codes[0] != &got[1].Cols[1].Codes[0] {
			t.Errorf("goroutine %d reads a second copy of the dictionary column", i)
		}
	}
	if got[2] != got[7] {
		t.Error("two reads of the same column got different views")
	}
	for _, f := range []int{0, 3} {
		if n := parses[f].Load(); n != rows {
			t.Errorf("column %d parsed %d times, want %d: it was built more than once", f, n, rows)
		}
	}
	// Every column was built in exactly one index span, each a child of
	// the parse span that asked, and the trace verifies.
	var built ColSet
	parents := map[int64]bool{}
	for _, sp := range sink.Spans() {
		switch sp.Kind {
		case obs.KindMapParse:
			parents[sp.ID] = true
		case obs.KindIndex:
			var set ColSet
			for _, f := range strings.Split(sp.Name, ",") {
				n, _ := strconv.Atoi(f)
				set |= 1 << n
			}
			if set&built != 0 || sp.Attr(obs.AttrRecords) != rows {
				t.Errorf("index span %q (records %d) rebuilt a column of %v", sp.Name, sp.Attr(obs.AttrRecords), built)
			}
			built |= set
		}
	}
	if built != 1<<0|1<<1|1<<3 {
		t.Errorf("index spans built columns %v, want 0,1,3", built)
	}
	for _, sp := range sink.Spans() {
		if sp.Kind == obs.KindIndex && !parents[sp.Parent] {
			t.Errorf("index span %q parented to %d, not to a parse span", sp.Name, sp.Parent)
		}
	}
	if err := (obs.Verifier{}).Check(sink.Spans()); err != nil {
		t.Error(err)
	}
}
