package bench

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"iter"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// specByIDMust panics on unknown IDs; experiment code only uses the
// fixed catalogue.
func specByIDMust(id string) *queries.Spec {
	s := queries.ByID(id)
	if s == nil {
		panic("bench: unknown query " + id)
	}
	return s
}

// Fig4 regenerates the paper's Figure 4: single-machine, in-memory
// throughput (MB/s) of the queries G1–G4 and R1–R4 under Sequential,
// SYMPLE with 1/2/4 mappers, and local MapReduce with 1/2/4 mappers.
// It answers the paper's §6.2 questions: symbolic execution's CPU
// overhead, whether SYMPLE outruns a commodity disk (~100 MB/s), and
// whether it scales with mappers.
func Fig4(sc Scale) (*Table, error) {
	t := &Table{
		Title: "Figure 4: multi-core throughput (MB/s)",
		Header: []string{"Query", "Sequential",
			"SYMPLE 1m", "SYMPLE 2m", "SYMPLE 4m",
			"MapReduce 1m", "MapReduce 2m", "MapReduce 4m"},
		Notes: []string{
			"in-memory input; mappers = input segments = parallel map tasks",
			"the MapReduce bars shuffle through Unix sort, as the paper's local baseline does",
			"commodity-disk reference line: 100 MB/s",
		},
	}
	chart := &BarChart{Title: "Figure 4 (bars): multi-core throughput", Unit: "MB/s"}
	ids := []string{"G1", "G2", "G3", "G4", "R1", "R2", "R3", "R4"}
	for _, id := range ids {
		spec := specByIDMust(id)
		row := []string{id}
		group := BarGroup{Label: id}

		// Sequential over a single segment.
		segs1 := fig4Dataset(spec.Dataset, sc, 1)
		seq, err := spec.Sequential(segs1)
		if err != nil {
			return nil, fmt.Errorf("fig4 %s sequential: %w", id, err)
		}
		row = append(row, fmtThroughput(seq))
		group.Bars = append(group.Bars, Bar{Label: "Sequential", Value: throughputMBps(seq)})

		var symple, baseline []string
		for _, mappers := range []int{1, 2, 4} {
			segs := fig4Dataset(spec.Dataset, sc, mappers)
			conf := mapreduce.Config{NumReducers: 1, Parallelism: mappers}
			symp, err := spec.Symple(segs, conf)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s symple %dm: %w", id, mappers, err)
			}
			base, err := sortBaseline(spec, segs, conf)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s baseline %dm: %w", id, mappers, err)
			}
			if symp.Digest != seq.Digest || base.Digest != seq.Digest {
				return nil, fmt.Errorf("fig4 %s: engines disagree at %d mappers", id, mappers)
			}
			symple = append(symple, fmtThroughput(symp))
			baseline = append(baseline, fmtThroughput(base))
			if mappers == 4 {
				group.Bars = append(group.Bars,
					Bar{Label: "SYMPLE 4m", Value: throughputMBps(symp)},
					Bar{Label: "MapReduce 4m", Value: throughputMBps(base)})
			}
		}
		row = append(row, symple...)
		row = append(row, baseline...)
		t.Rows = append(t.Rows, row)
		chart.Groups = append(chart.Groups, group)
	}
	t.Chart = chart
	return t, nil
}

func fmtThroughput(r *queries.Run) string {
	v := throughputMBps(r)
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// throughputMBps is input bytes over wall time.
func throughputMBps(r *queries.Run) float64 {
	s := r.Metrics.TotalWall.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Metrics.InputBytes) / 1e6 / s
}

// fig4Dataset regenerates the query's corpus with the requested segment
// count (the mapper count of the run).
func fig4Dataset(dataset string, sc Scale, segments int) []*mapreduce.Segment {
	n := sc.Records
	switch dataset {
	case "github":
		return data.GenGithub(data.GithubConfig{
			Records: n, Repos: max(n/20, 1), Segments: segments,
			Filler: 820, Seed: 42})
	case "redshift":
		return data.GenRedshift(data.RedshiftConfig{
			Records: n, Advertisers: 100, Segments: segments,
			Filler: 850, Seed: 45, DarkWindows: 3})
	default:
		panic("fig4: unexpected dataset " + dataset)
	}
}

// sortBaseline runs the query's baseline the way the paper's local
// MapReduce does (§6.2: "we use Unix sort to sort mapper results by
// groupby key and merge to per-key lists"): its map, then sortShuffle,
// then its reduce per group. The wall time covers all three.
func sortBaseline(spec *queries.Spec, segs []*mapreduce.Segment, conf mapreduce.Config) (*queries.Run, error) {
	mapFn, reduce, err := spec.BaselinePair()
	if err != nil {
		return nil, err
	}
	var lines []string
	m, err := sortShuffle(segs, conf, mapFn, func(key string, values []mapreduce.Shuffled) error {
		line, err := reduce(key, values)
		lines = append(lines, line)
		return err
	})
	if err != nil {
		return nil, err
	}
	d, n := queries.Digest(lines)
	return &queries.Run{Digest: d, NumResults: n, Metrics: m}, nil
}

// sortShuffle runs mapFn over segs as a map-only job and pipes every
// pair it emits through LC_ALL=C sort, one line per pair:
//
//	hex(key) \t %020d(task) \t %020d(emit index) \t hex(value)
//
// Hex keeps tabs and newlines out of the fields and orders like the
// bytes it encodes, and a tab sorts below every hex digit, so byte order
// of the lines is (key, task, emit index) order. The baseline's map
// emits in record order, so within a task emit index orders a group as
// recordID does. reduce then receives each key's values in that order,
// one call per key, MapperID the task and RecordID the emit index.
// Without a sort binary it fails: the bars measure the pipe. The
// returned metrics are the map job's, TotalWall covering the whole.
func sortShuffle(segs []*mapreduce.Segment, conf mapreduce.Config, mapFn mapreduce.MapFunc,
	reduce func(key string, values []mapreduce.Shuffled) error) (*mapreduce.Metrics, error) {
	start := time.Now()
	cmd := exec.Command("sort")
	cmd.Env = append(cmd.Environ(), "LC_ALL=C")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("the MapReduce baseline shuffles through Unix sort: %w", err)
	}
	var mu sync.Mutex
	w := bufio.NewWriter(stdin)
	var lines int64
	job := &mapreduce.Job{
		Name: "fig4/sort-map",
		Map:  mapFn,
		Output: func(task int, pairs iter.Seq2[string, []byte]) error {
			mu.Lock()
			defer mu.Unlock()
			i := 0
			for key, value := range pairs {
				fmt.Fprintf(w, "%x\t%020d\t%020d\t%x\n", key, task, i, value)
				i++
			}
			lines += int64(i)
			return nil
		},
		Conf: conf,
	}
	m, err := job.Run(segs)
	if err == nil {
		err = w.Flush()
	}
	if cerr := stdin.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = reduceSorted(stdout, lines, reduce)
	}
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("sort: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	m.TotalWall = time.Since(start)
	return m, nil
}

// reduceSorted reads sort's output, want lines, and calls reduce once
// per run of one key.
func reduceSorted(r io.Reader, want int64, reduce func(key string, values []mapreduce.Shuffled) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var key string
	var group []mapreduce.Shuffled
	var n int64
	for sc.Scan() {
		k, v, err := parseSortedLine(sc.Bytes())
		if err != nil {
			return err
		}
		if len(group) > 0 && k != key {
			if err := reduce(key, group); err != nil {
				return err
			}
			group = group[:0]
		}
		key = k
		group = append(group, v)
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("sort returned %d of %d lines", n, want)
	}
	if len(group) > 0 {
		return reduce(key, group)
	}
	return nil
}

// parseSortedLine reads back one of sortShuffle's lines.
func parseSortedLine(line []byte) (string, mapreduce.Shuffled, error) {
	f := bytes.Split(line, []byte{'\t'})
	if len(f) != 4 {
		return "", mapreduce.Shuffled{}, fmt.Errorf("malformed sort line %q", line)
	}
	key, err0 := hex.DecodeString(string(f[0]))
	task, err1 := strconv.ParseInt(string(f[1]), 10, 64)
	index, err2 := strconv.ParseInt(string(f[2]), 10, 64)
	value, err3 := hex.DecodeString(string(f[3]))
	if err := errors.Join(err0, err1, err2, err3); err != nil || task < 0 || index < 0 {
		return "", mapreduce.Shuffled{}, fmt.Errorf("malformed sort line %q: %v", line, err)
	}
	return string(key), mapreduce.Shuffled{MapperID: int(task), RecordID: index, Value: value}, nil
}
