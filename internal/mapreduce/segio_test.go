package mapreduce

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
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

func TestReadSegmentsEmptyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.tsv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || len(segs[0].Records) != 0 {
		t.Fatalf("%d segments, want one of no records", len(segs))
	}
}

// faults reports whether f faults; f runs with faults turned into
// panics, so a fault fails f rather than the process.
func faults(f func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(runtime.Error); !ok {
				panic(r)
			}
			faulted = true
		}
	}()
	f()
	return false
}

// TestReadSegmentsAreReadOnly: a loaded record and its entry in the
// record table are mapped read-only, so a write to either faults instead
// of changing the corpus under its digest and index.
func TestReadSegmentsAreReadOnly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.tsv"), []byte("a\tb\nc\td\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := segs[0].Records
	if !faults(func() { recs[0][0] = 'x' }) {
		t.Error("a write to a loaded record did not fault")
	}
	if !faults(func() { recs[1] = nil }) {
		t.Error("a write to the record table did not fault")
	}
	if string(recs[0]) != "a\tb" || string(recs[1]) != "c\td" {
		t.Fatalf("records %q", recs)
	}
	runtime.KeepAlive(segs)
}

// TestReadSegmentsReleaseFaultsStaleRecords: once its segment is
// unreachable and its cleanup has run, a record kept past it faults on
// read — it never reads back other bytes.
func TestReadSegmentsReleaseFaultsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.tsv"), []byte("stale\tbytes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := ReadSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := segs[0].Records[0]
	segs = nil
	if !awaitRelease(t, rec) {
		t.Fatal("the record still reads after its segment was collected")
	}
}

// awaitRelease collects until reading rec faults, checking that every
// read that does not fault still returns rec's bytes. It reports
// whether the fault came.
func awaitRelease(t *testing.T, rec []byte) bool {
	t.Helper()
	want := string(append([]byte(nil), rec...))
	for range 200 {
		runtime.GC()
		var got string
		if faults(func() { got = string(rec) }) {
			return true
		}
		if got != want {
			t.Fatalf("a stale record read %q, want %q or a fault", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
