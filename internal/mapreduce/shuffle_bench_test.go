package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
)

// The shuffle benchmarks time the full shuffle path and the
// allocation-free emit hot path.

func benchSegments(numSegs, perSeg, payload int) []*Segment {
	rng := rand.New(rand.NewSource(1))
	segs := make([]*Segment, numSegs)
	for i := range segs {
		segs[i] = &Segment{ID: i}
		for r := 0; r < perSeg; r++ {
			rec := make([]byte, payload)
			for j := range rec {
				rec[j] = byte('a' + rng.Intn(26))
			}
			segs[i].Records = append(segs[i].Records, rec)
		}
	}
	return segs
}

func benchJob(conf Config) *Job {
	return &Job{
		Name: "bench",
		Map: func(id int, seg *Segment, emit Emit) error {
			for i, rec := range seg.Records {
				// Skewed key space: realistic group fan-in per reducer.
				emit(fmt.Sprintf("key-%d", (int(rec[0])*31+int(rec[1]))%512), int64(i), rec)
			}
			return nil
		},
		Reduce: func(_, _ int, _ string, values []Shuffled) error {
			for i := range values {
				_ = values[i].Value
			}
			return nil
		},
		Conf: conf,
	}
}

// BenchmarkShuffle drives the full shuffle path — emit, segment encode,
// run transfer, decode, grouping, group streaming.
func BenchmarkShuffle(b *testing.B) {
	const numSegs, perSeg, payload = 8, 4000, 100
	segs := benchSegments(numSegs, perSeg, payload)
	var inputBytes int64
	for _, s := range segs {
		inputBytes += s.Bytes()
	}
	b.Run("streaming", func(b *testing.B) {
		job := benchJob(Config{NumReducers: 4, Parallelism: 4})
		b.SetBytes(inputBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := job.Run(segs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEmitHotPath isolates the per-record emit cost: partition the
// key, account the wire size, append to the run buffer.
func BenchmarkEmitHotPath(b *testing.B) {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	value := make([]byte, 100)
	b.Run("streaming", func(b *testing.B) {
		parts := make([][]kvRec, 4)
		outBytes := make([]int64, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := keys[i%len(keys)]
			rec := kvRec{key: key, mapperID: 3, recordID: int64(i), value: value}
			p := partition(key, len(parts))
			outBytes[p] += rec.wireSize()
			if len(parts[p]) > 1<<16 {
				parts[p] = parts[p][:0] // bound memory; keep append cost amortized
			}
			parts[p] = append(parts[p], rec)
		}
	})
}
