package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"unsafe"
)

// ReadSegments loads ordered input segments from a directory of
// newline-delimited record files, one segment per file. Files are
// ordered by name (datagen writes part-00000.tsv, part-00001.tsv, …),
// which defines the global record order — the stand-in for a distributed
// file system's chunk order.
//
// A file is mapped read-only, and its record table lies in an anonymous
// mapping sealed read-only once filled, so neither is heap the collector
// marks. The Segment owns both: once it is unreachable they are
// released, and a record (or a view of one) read after that faults. So
// a reader keeps the segment reachable past its last read of a record
// (runtime.KeepAlive) and copies what outlives it. Loaded files must not
// change: a truncation turns a read past the new end into SIGBUS.
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
		seg, err := mapSegment(i, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// mapSegment maps one newline-delimited file as segment id: the
// trailing newline is optional, a carriage return before a newline is
// dropped, blank lines are skipped, and each record is a cap-clipped
// sub-slice of the mapping. An empty file cannot be mapped: it is a
// segment of no records.
func mapSegment(id int, path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: %w", err)
	}
	seg := &Segment{ID: id}
	if st.Size() == 0 {
		return seg, nil
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: mapping %s: %w", path, err)
	}
	n := bytes.Count(buf, []byte{'\n'}) + 1
	tab, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof([]byte(nil))), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		release(buf)
		return nil, fmt.Errorf("mapreduce: mapping the record table of %s: %w", path, err)
	}
	recs := unsafe.Slice((*[]byte)(unsafe.Pointer(unsafe.SliceData(tab))), n)[:0]
	for rest := buf; len(rest) > 0; {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			rest = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) > 0 {
			recs = append(recs, line[:len(line):len(line)])
		}
	}
	if err := syscall.Mprotect(tab, syscall.PROT_READ); err != nil {
		release(buf)
		release(tab)
		return nil, fmt.Errorf("mapreduce: sealing the record table of %s: %w", path, err)
	}
	seg.Records = recs[:len(recs):len(recs)]
	runtime.AddCleanup(seg, func(r [2][]byte) { release(r[0]); release(r[1]) }, [2][]byte{buf, tab})
	return seg, nil
}

// release gives a mapping's memory back by replacing it in place with an
// inaccessible reservation, never unmapped, so nothing mapped later (the
// Go heap included) lands where a stale record points. A cleanup has no
// one to report to: if the call fails, the range just stays mapped.
func release(b []byte) {
	_, _, _ = syscall.Syscall6(syscall.SYS_MMAP, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), syscall.PROT_NONE,
		syscall.MAP_FIXED|syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE, ^uintptr(0), 0)
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
		// A bufio.Writer keeps its first error: Flush reports it.
		w := bufio.NewWriter(f)
		for _, rec := range seg.Records {
			w.Write(rec)
			w.WriteByte('\n')
		}
		err = w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("mapreduce: writing %s: %w", path, err)
		}
	}
	return nil
}
