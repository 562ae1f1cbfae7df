package mapreduce

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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
		[]byte("short"),                     // too few fields
		[]byte("1e3\trepo/a\tx\t1"),         // int field its parser rejects
		[]byte("101\trepo/b\tx\t0"),         // no tail at all
		[]byte("102\trepo/a\tx\t256\ttail"), // flag outside a byte
		[]byte("103\trepo/a\tx\t-1\ttail"),  // flag outside a byte
		[]byte(""),                          // empty record
		nil,                                 // nil record
		[]byte("104\trepo/c\t\t255\t\t"),    // empty skipped field, empty tail fields
		[]byte("105\trepo/b\tx\t7\ta\tb\tc"),
	}
	plan := testPlan(parseDecimal)
	c, _ := buildIndex(records, plan)
	if c.Plan != plan || c.Rows != len(records) {
		t.Fatalf("plan %p rows %d, want %p and %d", c.Plan, c.Rows, plan, len(records))
	}
	if want := []int32{1, 2, 4, 5, 6, 7}; !slices.Equal(c.Ragged, want) {
		t.Fatalf("ragged rows %v, want %v", c.Ragged, want)
	}
	for i, row := range c.Ragged {
		if string(c.RaggedRecs[i]) != string(records[row]) {
			t.Fatalf("ragged row %d holds %q, want %q", row, c.RaggedRecs[i], records[row])
		}
	}
	if c.Dense() != 4 {
		t.Fatalf("dense = %d, want 4", c.Dense())
	}
	if want := []int64{100, 101, 104, 105}; !slices.Equal(c.Cols[0].Ints, want) {
		t.Errorf("int column %v, want %v", c.Cols[0].Ints, want)
	}
	// Dictionary codes dedupe in first-use order over the dense rows.
	if want := []string{"repo/a", "repo/b", "repo/c"}; !slices.Equal(c.Cols[1].Dict, want) {
		t.Errorf("dictionary %v, want %v", c.Cols[1].Dict, want)
	}
	if want := []uint32{0, 1, 2, 1}; !slices.Equal(c.Cols[1].Codes, want) {
		t.Errorf("codes %v, want %v", c.Cols[1].Codes, want)
	}
	if want := []uint8{1, 0, 255, 7}; !slices.Equal(c.Cols[3].Bytes, want) {
		t.Errorf("byte column %v, want %v", c.Cols[3].Bytes, want)
	}
	if sk := c.Cols[2]; sk.Ints != nil || sk.Bytes != nil || sk.Codes != nil || sk.Dict != nil {
		t.Errorf("skipped field stored something: %+v", sk)
	}
	// The index is resident with the segment, so the vectors carry no
	// growth slack past the dense rows.
	if got := cap(c.Cols[0].Ints); got > 2*c.Dense() {
		t.Errorf("int column cap %d for %d dense rows", got, c.Dense())
	}
}

// TestBuildIndexDictAliasesRecords pins the memory contract: a dictionary
// entry is a view of the record it was first seen in, not a copy.
func TestBuildIndexDictAliasesRecords(t *testing.T) {
	rec := []byte("7\tsome-key\tx\t1")
	c, _ := buildIndex([][]byte{rec}, testPlan(parseDecimal))
	if got, want := unsafe.StringData(c.Cols[1].Dict[0]), &rec[2]; got != want {
		t.Fatalf("dictionary entry at %p, record bytes at %p", got, want)
	}
}

func TestSegmentIndexResidentUntilRecordsChange(t *testing.T) {
	seg := &Segment{Records: [][]byte{[]byte("1\ta\tx\t1"), []byte("2\tb\tx\t0")}}
	plan, other := testPlan(parseDecimal), testPlan(parseDecimal)
	first := seg.Index(plan)
	if first == nil || first.Rows != 2 {
		t.Fatalf("first touch: %+v", first)
	}
	if again := seg.Index(plan); again != first {
		t.Fatal("second touch rebuilt a resident index")
	}
	// A foreign plan neither reads the resident index nor evicts it.
	if got := seg.Index(other); got != nil {
		t.Fatalf("foreign plan was served an index built under another: %+v", got)
	}
	if again := seg.Index(plan); again != first {
		t.Fatal("a foreign plan's touch evicted the resident index")
	}
	// Replaced records: the stale index must not be served.
	seg.Records = [][]byte{[]byte("9\tz\tx\t1")}
	rebuilt := seg.Index(plan)
	if rebuilt == first || rebuilt.Rows != 1 || rebuilt.Cols[0].Ints[0] != 9 {
		t.Fatalf("index after Records were replaced: %+v", rebuilt)
	}
}

// TestSegmentIndexConcurrentFirstTouch: jobs racing to a segment's first
// touch get one index, built once (the parser runs once per typed field
// per row). Run under -race by scripts/verify.sh.
func TestSegmentIndexConcurrentFirstTouch(t *testing.T) {
	const rows = 500
	seg := &Segment{}
	for i := 0; i < rows; i++ {
		seg.Records = append(seg.Records, []byte(strconv.Itoa(i)+"\tk"+strconv.Itoa(i%7)+"\tx\t1\tfiller"))
	}
	var parses atomic.Int64
	plan := testPlan(func(b []byte) (int64, bool) {
		parses.Add(1)
		return parseDecimal(b)
	})
	got := make([]*Columnar, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = seg.Index(plan)
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil || c != got[0] || c.Dense() != rows {
			t.Fatalf("goroutine %d saw index %p (first saw %p)", i, c, got[0])
		}
	}
	if n := parses.Load(); n != 2*rows {
		t.Fatalf("parser ran %d times, want %d: the index was built more than once", n, 2*rows)
	}
}
