package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os/exec"
	"sort"
	"strconv"
)

// External-sort shuffle: the paper's single-machine MapReduce baseline
// (§6.2) pipes mapper output through Unix sort ("we use Unix sort to
// sort mapper results by groupby key and merge to per-key lists"). With
// Config.ExternalSort set, each reduce partition is sorted by piping
// length-stable text lines through the system sort binary instead of
// sorting in process — reproducing the extra serialization and pipe
// traffic that implementation pays.
//
// Line format, chosen so LC_ALL=C byte order equals the engine's
// (key, mapperID, recordID) order: hex(key) \t %020d(mapper) \t
// %020d(record) \t hex(value). Hex keeps keys and values with tabs or
// newlines safe.

// externalSortAvailable reports whether a sort binary can be executed.
func externalSortAvailable() bool {
	_, err := exec.LookPath("sort")
	return err == nil
}

// externalSort sorts one partition via the system sort binary. On any
// failure it falls back to the in-process sort so jobs never break on
// exotic systems.
func externalSort(part []kvRec) []kvRec {
	sorted, err := externalSortPipe(part)
	if err != nil {
		sortPartition(part)
		return part
	}
	return sorted
}

func externalSortPipe(part []kvRec) ([]kvRec, error) {
	if len(part) == 0 {
		return part, nil
	}
	cmd := exec.Command("sort")
	cmd.Env = append(cmd.Environ(), "LC_ALL=C")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	writeErr := make(chan error, 1)
	go func() {
		w := bufio.NewWriter(stdin)
		for i := range part {
			r := &part[i]
			fmt.Fprintf(w, "%s\t%020d\t%020d\t%s\n",
				hex.EncodeToString([]byte(r.key)), r.mapperID, r.recordID,
				hex.EncodeToString(r.value))
		}
		if err := w.Flush(); err != nil {
			writeErr <- err
			return
		}
		writeErr <- stdin.Close()
	}()

	out := make([]kvRec, 0, len(part))
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		rec, err := parseSortedLine(sc.Bytes())
		if err != nil {
			_ = cmd.Wait()
			return nil, err
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		_ = cmd.Wait()
		return nil, err
	}
	if err := <-writeErr; err != nil {
		_ = cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	if len(out) != len(part) {
		return nil, fmt.Errorf("mapreduce: external sort returned %d of %d lines", len(out), len(part))
	}
	return out, nil
}

func parseSortedLine(line []byte) (kvRec, error) {
	fields := bytes.Split(line, []byte{'\t'})
	if len(fields) != 4 {
		return kvRec{}, fmt.Errorf("mapreduce: malformed sorted line %q", line)
	}
	key, err := hex.DecodeString(string(fields[0]))
	if err != nil {
		return kvRec{}, err
	}
	mapperID, err := strconv.Atoi(trimZeros(fields[1]))
	if err != nil {
		return kvRec{}, err
	}
	recordID, err := strconv.ParseInt(trimZeros(fields[2]), 10, 64)
	if err != nil {
		return kvRec{}, err
	}
	value, err := hex.DecodeString(string(fields[3]))
	if err != nil {
		return kvRec{}, err
	}
	if len(value) == 0 {
		value = nil
	}
	return kvRec{key: string(key), mapperID: mapperID, recordID: recordID, value: value}, nil
}

// trimZeros strips leading zeros from a fixed-width decimal, keeping a
// final "0" for the zero value.
func trimZeros(b []byte) string {
	t := bytes.TrimLeft(b, "0")
	if len(t) == 0 {
		return "0"
	}
	return string(t)
}

// sortPartition is the in-process shuffle order. seq breaks the
// (key, mapperID, recordID) ties a multi-emitting record can produce,
// so the ExternalSort fallback reproduces emit order exactly.
func sortPartition(part []kvRec) {
	sort.Slice(part, func(a, b int) bool {
		ra, rb := &part[a], &part[b]
		if ra.key != rb.key {
			return ra.key < rb.key
		}
		if ra.mapperID != rb.mapperID {
			return ra.mapperID < rb.mapperID
		}
		if ra.recordID != rb.recordID {
			return ra.recordID < rb.recordID
		}
		return ra.seq < rb.seq
	})
}
