package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// ReadSegments loads ordered input segments from a directory of
// newline-delimited record files, one segment per file. Files are
// ordered by name (datagen writes part-00000.tsv, part-00001.tsv, …),
// which defines the global record order — the stand-in for a distributed
// file system's chunk order.
func ReadSegments(dir string) ([]*Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: reading segment dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("mapreduce: no segment files in %s", dir)
	}
	sort.Strings(names)
	segs := make([]*Segment, 0, len(names))
	for i, name := range names {
		recs, err := readRecords(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		segs = append(segs, &Segment{ID: i, Records: recs})
	}
	return segs, nil
}

// readRecords reads one newline-delimited file; the trailing newline is
// optional, a carriage return before a newline is dropped, and blank
// lines are skipped. The file is read into one buffer and the records
// are sub-slices of it — capacity-clipped, so appending to one cannot
// write into the next — instead of one allocation per line.
func readRecords(path string) ([][]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %w", err)
	}
	recs := make([][]byte, 0, bytes.Count(buf, []byte{'\n'})+1)
	for len(buf) > 0 {
		line := buf
		if nl := bytes.IndexByte(buf, '\n'); nl >= 0 {
			line, buf = buf[:nl], buf[nl+1:]
		} else {
			buf = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		recs = append(recs, line[:len(line):len(line)])
	}
	return recs, nil
}

// WriteSegments writes segments to a directory, one newline-delimited
// file per segment, in the layout ReadSegments loads.
func WriteSegments(dir string, segs []*Segment) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mapreduce: %w", err)
	}
	for _, seg := range segs {
		path := filepath.Join(dir, fmt.Sprintf("part-%05d.tsv", seg.ID))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("mapreduce: %w", err)
		}
		w := bufio.NewWriter(f)
		for _, rec := range seg.Records {
			if _, err := w.Write(rec); err != nil {
				f.Close()
				return fmt.Errorf("mapreduce: writing %s: %w", path, err)
			}
			if err := w.WriteByte('\n'); err != nil {
				f.Close()
				return fmt.Errorf("mapreduce: writing %s: %w", path, err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("mapreduce: flushing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("mapreduce: closing %s: %w", path, err)
		}
	}
	return nil
}
