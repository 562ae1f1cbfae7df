package mapreduce

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fuzzseed"
)

// splitLines is ReadSegments' rule for a file, spelled out as a plain
// reference: split on \n, trim one \r, drop whitespace-only lines.
func splitLines(file []byte) [][]byte {
	var recs [][]byte
	for _, line := range bytes.Split(file, []byte{'\n'}) {
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) > 0 {
			recs = append(recs, line)
		}
	}
	return recs
}

// segFileSeeds builds the committed corpus of segment files, one file
// shape each: CRLF endings, whitespace-only lines, no trailing newline,
// one record, an empty file, an all-newline file (a record bound of
// len/2+1 is widest there, and the table stays one page), and enough
// short records to grow the record table past its first mapping.
func segFileSeeds() []fuzzseed.Seed {
	return []fuzzseed.Seed{
		{Name: "crlf.tsv", Data: []byte("a\tb\r\nc\td\r\n\r\ne\tf\r\n")},
		{Name: "whitespace-lines.tsv", Data: []byte("a\n \n\t\n \r\n\v\f\nb\n  x  \n")},
		{Name: "no-trailing-newline.tsv", Data: []byte("first\tline\nlast\tline")},
		{Name: "one-record.tsv", Data: []byte("only\n")},
		{Name: "empty.tsv", Data: nil},
		{Name: "all-newlines.tsv", Data: bytes.Repeat([]byte{'\n'}, 4096)},
		{Name: "many-records.tsv", Data: []byte(strings.Repeat("r\n", 6000) + "r\r\nend")},
	}
}

// FuzzReadSegments: the table one scan of a mapped file builds equals
// the reference splitter's, record for record, and the payload total
// the scan sums equals the records' length sum. Tier-1 runs the
// committed seeds (testdata/fuzz-seeds/segment-files).
func FuzzReadSegments(f *testing.F) {
	seeds, err := fuzzseed.Load("segment-files")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.tsv"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		segs, err := ReadSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, want := segs[0].Records, splitLines(file)
		if len(got) != len(want) {
			t.Fatalf("%d records, want %d", len(got), len(want))
		}
		var size int64
		for i := range want {
			if !bytes.Equal(got[i], want[i]) || cap(got[i]) != len(got[i]) {
				t.Fatalf("record %d: %q (cap %d), want %q", i, got[i], cap(got[i]), want[i])
			}
			size += int64(len(want[i]))
		}
		if n := segs[0].Bytes(); n != size {
			t.Fatalf("payload total %d, want %d", n, size)
		}
		runtime.KeepAlive(segs)
	})
}

// TestSegmentFileSeedsCurrent: the committed segment-file corpus is
// what segFileSeeds builds (regenerate with -update-fuzz-seeds).
func TestSegmentFileSeedsCurrent(t *testing.T) {
	want := segFileSeeds()
	if *updateFuzzSeeds {
		if err := fuzzseed.Update("segment-files", want); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fuzzseed.Load("segment-files")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d committed seeds, the generator builds %d", len(got), len(want))
	}
	byName := map[string][]byte{}
	for _, s := range got {
		byName[s.Name] = s.Data
	}
	for _, s := range want {
		if d, ok := byName[s.Name]; !ok || !bytes.Equal(d, s.Data) {
			t.Errorf("%s: committed seed differs from the generator's", s.Name)
		}
	}
}

// BenchmarkReadSegments times loading one mapped 8 MB file — the scan
// that builds its record table and payload total — at the record sizes
// of the benchmark's corpora (bing's ~150 bytes, github's ~900), in MB/s.
func BenchmarkReadSegments(b *testing.B) {
	for _, size := range []int{150, 900} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			dir := b.TempDir()
			rec := append(bytes.Repeat([]byte{'x'}, size-1), '\n')
			file := bytes.Repeat(rec, 8<<20/size)
			if err := os.WriteFile(filepath.Join(dir, "p.tsv"), file, 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(file)))
			for b.Loop() {
				segs, err := ReadSegments(dir)
				if err != nil || len(segs[0].Records) != 8<<20/size {
					b.Fatal(err)
				}
			}
		})
	}
}
