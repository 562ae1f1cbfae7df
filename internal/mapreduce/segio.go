package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
	var segs []*Segment
	for _, e := range entries { // sorted by name
		if e.IsDir() {
			continue
		}
		seg, err := mapSegment(len(segs), filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		segs = append(segs, seg)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("mapreduce: no segment files in %s", dir)
	}
	return segs, nil
}

// mapSegment maps one newline-delimited file as segment id: the
// trailing newline is optional, a carriage return before a newline is
// dropped, blank lines are skipped, and each record is a cap-clipped
// sub-slice of the mapping. One scan splits the file into the record
// table, which grows as it fills (remap), and sums the payload total, so
// the segment is sized once loaded; its digest stays lazy. An empty file
// cannot be mapped: it is a segment of no records.
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
	tab, err := remap(nil, 64<<10)
	recs, size := table(tab)[:0], int64(0)
	for rest := buf; len(rest) > 0 && err == nil; {
		line := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
			line, rest = rest[:nl], rest[nl+1:]
		} else {
			rest = nil
		}
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if len(recs) == cap(recs) { // grow to the count the bytes read so far predict, an eighth over
			n := len(recs) * len(buf) / (len(buf) - len(rest)) * 9 / 8
			if tab, err = remap(tab, max(n*recSize, 2*len(tab))); err != nil {
				break
			}
			recs = table(tab)[:len(recs)]
		}
		recs = append(recs, line[:len(line):len(line)])
		size += int64(len(line))
	}
	if err == nil { // cut to the pages it fills (a shrink stays in place) and seal
		if tab, err = remap(tab, max(len(recs), 1)*recSize); err == nil {
			err = syscall.Mprotect(tab, syscall.PROT_READ)
		}
	}
	if err != nil {
		release(buf)
		release(tab)
		return nil, fmt.Errorf("mapreduce: the record table of %s: %w", path, err)
	}
	seg.Records = recs[:len(recs):len(recs)]
	seg.memo = segmentMemo{rows: len(recs), size: size, sized: true}
	runtime.AddCleanup(seg, func(r [2][]byte) { release(r[0]); release(r[1]) }, [2][]byte{buf, tab})
	return seg, nil
}

const recSize = int(unsafe.Sizeof([]byte(nil)))

// table views mapping tab as a record table.
func table(tab []byte) [][]byte {
	return unsafe.Slice((*[]byte)(unsafe.Pointer(unsafe.SliceData(tab))), len(tab)/recSize)
}

// remap maps n anonymous bytes for a nil b, else resizes b (mremap,
// moving pages, not bytes); a failed call leaves b as it was. Raw calls:
// syscall.Mmap's record of a range would outlive a move or a cut.
func remap(b []byte, n int) ([]byte, error) {
	p, errno := uintptr(0), syscall.Errno(0)
	if b == nil {
		p, _, errno = syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(n), syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS, ^uintptr(0), 0)
	} else {
		p, _, errno = syscall.Syscall6(syscall.SYS_MREMAP, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(n),
			1 /* MREMAP_MAYMOVE */, 0, 0)
	}
	if errno != 0 {
		return b, errno
	}
	return unsafe.Slice((*byte)(unsafe.Add(nil, p)), n), nil
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
