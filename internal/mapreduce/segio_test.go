package mapreduce

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestSegmentsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	segs := []*Segment{
		{ID: 0, Records: [][]byte{[]byte("a\t1"), []byte("b\t2")}},
		{ID: 1, Records: [][]byte{[]byte("c\t3")}},
		{ID: 2, Records: nil},
	}
	if err := WriteSegments(dir, segs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d segments, want 3", len(got))
	}
	for i, seg := range segs {
		if got[i].ID != i {
			t.Errorf("segment %d has ID %d", i, got[i].ID)
		}
		if len(got[i].Records) != len(seg.Records) {
			t.Fatalf("segment %d: %d records, want %d", i, len(got[i].Records), len(seg.Records))
		}
		for j := range seg.Records {
			if !bytes.Equal(got[i].Records[j], seg.Records[j]) {
				t.Errorf("segment %d record %d: %q != %q", i, j, got[i].Records[j], seg.Records[j])
			}
		}
	}
}

func TestReadSegmentsOrderedByName(t *testing.T) {
	dir := t.TempDir()
	// Write files out of creation order; names must govern.
	if err := os.WriteFile(filepath.Join(dir, "part-00001.tsv"), []byte("second\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "part-00000.tsv"), []byte("first\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(segs[0].Records[0]) != "first" || string(segs[1].Records[0]) != "second" {
		t.Fatalf("order wrong: %q, %q", segs[0].Records[0], segs[1].Records[0])
	}
}

func TestReadSegmentsSkipsBlankLines(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.tsv"), []byte("a\n\n  \nb"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs[0].Records) != 2 {
		t.Fatalf("%d records, want 2", len(segs[0].Records))
	}
}

// TestReadSegmentsRecordsAreIsolated: the records of one file share a
// buffer, so each must be clipped to its own bytes — an append to one
// may not write into its neighbour — and a CRLF file loads like an LF one.
func TestReadSegmentsRecordsAreIsolated(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.tsv"), []byte("a\tb\r\nc\td\r\n\r\ne"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := segs[0].Records
	if len(recs) != 3 || string(recs[0]) != "a\tb" || string(recs[1]) != "c\td" || string(recs[2]) != "e" {
		t.Fatalf("records %q", recs)
	}
	_ = append(recs[0], "XXXX"...)
	if string(recs[1]) != "c\td" {
		t.Fatalf("append to record 0 wrote into record 1: %q", recs[1])
	}
}

func TestReadSegmentsErrors(t *testing.T) {
	if _, err := ReadSegments(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing dir")
	}
	empty := t.TempDir()
	if _, err := ReadSegments(empty); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestExternalSortMatchesInProcess(t *testing.T) {
	if !externalSortAvailable() {
		t.Skip("no sort binary")
	}
	part := []kvRec{
		{key: "b", mapperID: 1, recordID: 5, value: []byte("v1")},
		{key: "a", mapperID: 2, recordID: 0, value: []byte{0x00, 0x09, 0x0A}},
		{key: "a", mapperID: 0, recordID: 7, value: nil},
		{key: "a", mapperID: 0, recordID: 2, value: []byte("tab\tand\nnewline")},
		{key: "key with spaces", mapperID: 3, recordID: 1, value: []byte("x")},
	}
	want := append([]kvRec(nil), part...)
	sortPartition(want)
	got := externalSort(append([]kvRec(nil), part...))
	if len(got) != len(want) {
		t.Fatalf("lengths differ")
	}
	for i := range want {
		if want[i].key != got[i].key || want[i].mapperID != got[i].mapperID ||
			want[i].recordID != got[i].recordID || !bytes.Equal(want[i].value, got[i].value) {
			t.Fatalf("row %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestExternalSortJobEndToEnd(t *testing.T) {
	if !externalSortAvailable() {
		t.Skip("no sort binary")
	}
	segs := []*Segment{
		{ID: 0, Records: [][]byte{[]byte("k1"), []byte("k2")}},
		{ID: 1, Records: [][]byte{[]byte("k1"), []byte("k1")}},
	}
	run := func(ext bool) map[string][]int {
		out := map[string][]int{}
		var mu sync.Mutex
		job := &Job{
			Name: "ext",
			Map: func(_ int, seg *Segment, emit Emit) error {
				for i, rec := range seg.Records {
					emit(string(rec), int64(i), []byte{byte(seg.ID)})
				}
				return nil
			},
			Reduce: func(_ int, key string, values []Shuffled) error {
				mu.Lock()
				defer mu.Unlock()
				for _, v := range values {
					out[key] = append(out[key], v.MapperID*100+int(v.RecordID))
				}
				return nil
			},
			Conf: Config{NumReducers: 2, ExternalSort: ext},
		}
		if _, err := job.Run(segs); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatal("group counts differ")
	}
	for k, v := range a {
		w := b[k]
		if len(v) != len(w) {
			t.Fatalf("key %s lengths differ", k)
		}
		for i := range v {
			if v[i] != w[i] {
				t.Fatalf("key %s order differs: %v vs %v", k, v, w)
			}
		}
	}
}

func TestParseSortedLineErrors(t *testing.T) {
	for _, bad := range []string{"", "onlyone", "zz\t00\t00\t00", "61\t00\t00\tzz", "61\txx\t00\t61"} {
		if _, err := parseSortedLine([]byte(bad)); err == nil {
			t.Errorf("parseSortedLine(%q): expected error", bad)
		}
	}
	rec, err := parseSortedLine([]byte("61\t00000000000000000000\t00000000000000000003\t62"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.key != "a" || rec.mapperID != 0 || rec.recordID != 3 || string(rec.value) != "b" {
		t.Fatalf("parsed: %+v", rec)
	}
}
