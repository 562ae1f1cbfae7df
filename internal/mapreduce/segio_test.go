package mapreduce

import (
	"bytes"
	"os"
	"path/filepath"
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
