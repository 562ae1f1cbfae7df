package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/mapreduce"
	"repro/internal/queries"
)

// wireCluster models the constrained-network regime where shuffle volume
// is the latency lever (the paper's shared-cluster setting): modest NICs,
// with the flate codec's CPU charged at rates typical of DEFLATE at best
// speed.
func wireCluster(compressed bool) dcsim.Cluster {
	c := dcsim.Cluster{
		Nodes: 4,
		Node:  dcsim.NodeSpec{Cores: 4, DiskMBps: 200, NetMBps: 10},
	}
	if compressed {
		c.CompressMBps = 400
		c.DecompressMBps = 800
	}
	return c
}

// wireJob replays a measured run through dcsim verbatim: per-task wire
// bytes as transfer volume, per-task logical bytes as the codec-charge
// volume.
func wireJob(m *mapreduce.Metrics) dcsim.Job {
	maps := make([]dcsim.MapTask, len(m.MapTasks))
	for i, t := range m.MapTasks {
		maps[i] = dcsim.MapTask{
			InputBytes:      t.InputBytes,
			CPUSeconds:      t.Duration.Seconds(),
			OutBytes:        t.OutBytes,
			LogicalOutBytes: t.LogicalOutBytes,
		}
	}
	reds := make([]dcsim.ReduceTask, len(m.ReduceTasks))
	for r, t := range m.ReduceTasks {
		reds[r] = dcsim.ReduceTask{CPUSeconds: t.Duration.Seconds()}
	}
	return dcsim.Job{Maps: maps, Reduces: reds}
}

type wireQuery struct {
	Query string `json:"query"`
	// SeedBytes is the legacy per-record framing the seed engine shipped
	// (Metrics.ShuffleLogicalBytes) — the "current encoding" baseline.
	SeedBytes int64 `json:"seed_bytes"`
	// SegmentBytes is the dictionary/delta segment encoding, uncompressed.
	SegmentBytes int64 `json:"segment_bytes"`
	// CompressedBytes adds flate block compression (CompressShuffle).
	CompressedBytes     int64   `json:"compressed_bytes"`
	SegmentReduction    float64 `json:"segment_reduction"`
	CompressedReduction float64 `json:"compressed_reduction"`
	// Modeled end-to-end seconds on the constrained-network cluster.
	ModelRawS        float64 `json:"model_raw_s"`
	ModelCompressedS float64 `json:"model_compressed_s"`
}

type wireReport struct {
	Scale    Scale `json:"scale"`
	Pipeline struct {
		// Full shuffle pipeline (emit → encode → spill → decode → merge)
		// throughput on the synthetic corpus, raw segments vs compressed.
		RawMBPerSec        float64 `json:"raw_mb_per_sec"`
		CompressedMBPerSec float64 `json:"compressed_mb_per_sec"`
	} `json:"pipeline"`
	Queries []wireQuery `json:"queries"`
	// QueriesAtTwoX counts queries whose best encoding beats the seed
	// framing by ≥2x — the acceptance bar is at least half of them.
	QueriesAtTwoX int `json:"queries_at_2x"`
}

// Wire measures the compact shuffle wire format across the paper's 12
// queries and writes BENCH_WIRE.json: SYMPLE shuffle bytes under the
// seed's per-record framing vs dictionary/delta segments vs flate block
// compression, pipeline encode/decode throughput, and modeled end-to-end
// latency with the codec CPU charged. Both runs of every query must
// produce identical digests — compression is not allowed to change an
// answer.
func Wire(d *Datasets) (*Table, error) {
	t := &Table{
		Title: "Wire: compact shuffle encoding vs seed framing (SYMPLE engine)",
		Header: []string{"Query", "Seed", "Dict/delta", "+flate",
			"vs seed", "vs seed (flate)", "model raw→flate (s)"},
		Notes: []string{
			"seed = legacy length-prefixed record framing (ShuffleLogicalBytes)",
			"model: 4 nodes, 10MB/s NICs, flate charged at 400/800 MB/s (de)compression",
			"written to BENCH_WIRE.json",
		},
	}
	rep := wireReport{Scale: d.Scale}

	for _, spec := range queries.All() {
		segs, err := d.For(spec.Dataset, false)
		if err != nil {
			return nil, err
		}
		conf := mapreduce.Config{NumReducers: 4}
		confC := conf
		confC.CompressShuffle = true
		raw, err := spec.Symple(segs, conf)
		if err != nil {
			return nil, fmt.Errorf("wire %s: %w", spec.ID, err)
		}
		comp, err := spec.Symple(segs, confC)
		if err != nil {
			return nil, fmt.Errorf("wire %s compressed: %w", spec.ID, err)
		}
		if raw.Digest != comp.Digest || raw.NumResults != comp.NumResults {
			return nil, fmt.Errorf("wire %s: CompressShuffle changed the answer (%x vs %x)",
				spec.ID, raw.Digest, comp.Digest)
		}

		q := wireQuery{
			Query:           spec.ID,
			SeedBytes:       raw.Metrics.ShuffleLogicalBytes,
			SegmentBytes:    raw.Metrics.ShuffleBytes,
			CompressedBytes: comp.Metrics.ShuffleBytes,
		}
		q.SegmentReduction = float64(q.SeedBytes) / float64(q.SegmentBytes)
		q.CompressedReduction = float64(q.SeedBytes) / float64(q.CompressedBytes)
		if q.CompressedReduction >= 2 || q.SegmentReduction >= 2 {
			rep.QueriesAtTwoX++
		}

		rawSim, err := dcsim.Simulate(wireCluster(false), wireJob(raw.Metrics))
		if err != nil {
			return nil, fmt.Errorf("wire %s model: %w", spec.ID, err)
		}
		compSim, err := dcsim.Simulate(wireCluster(true), wireJob(comp.Metrics))
		if err != nil {
			return nil, fmt.Errorf("wire %s model compressed: %w", spec.ID, err)
		}
		q.ModelRawS = rawSim.TotalS
		q.ModelCompressedS = compSim.TotalS
		rep.Queries = append(rep.Queries, q)

		t.Rows = append(t.Rows, []string{
			spec.ID,
			fmtBytes(q.SeedBytes),
			fmtBytes(q.SegmentBytes),
			fmtBytes(q.CompressedBytes),
			fmtFactor(q.SegmentReduction),
			fmtFactor(q.CompressedReduction),
			fmt.Sprintf("%.2f→%.2f", q.ModelRawS, q.ModelCompressedS),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d/%d queries at ≥2x vs seed framing (acceptance: ≥%d)",
		rep.QueriesAtTwoX, len(rep.Queries), (len(rep.Queries)+1)/2))

	// Pipeline throughput: the synthetic full-shuffle job (every record
	// crosses the wire) with raw vs compressed segments. The gap is the
	// flate cost at shuffle-bound throughput; the acceptance bar for the
	// default (raw segment) path is decode not regressing.
	pipeline := func(compress bool) float64 {
		segs := shuffleSegments(d.Scale)
		var inputBytes int64
		for _, s := range segs {
			inputBytes += s.Bytes()
		}
		job := shuffleJob(mapreduce.Config{
			NumReducers: 4, Parallelism: 4, CompressShuffle: compress})
		r := testing.Benchmark(func(b *testing.B) {
			b.SetBytes(inputBytes)
			for i := 0; i < b.N; i++ {
				if _, err := job.Run(segs); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(inputBytes) / 1e6 / (float64(r.NsPerOp()) / 1e9)
	}
	rep.Pipeline.RawMBPerSec = pipeline(false)
	rep.Pipeline.CompressedMBPerSec = pipeline(true)
	t.Rows = append(t.Rows,
		[]string{"pipeline", "-", fmt.Sprintf("%.0f MB/s", rep.Pipeline.RawMBPerSec),
			fmt.Sprintf("%.0f MB/s", rep.Pipeline.CompressedMBPerSec), "-", "-", "-"})

	f, err := os.Create("BENCH_WIRE.json")
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return t, nil
}

// shuffleSegments builds the pipeline microbenchmark corpus: fixed-width
// random records whose leading bytes pick one of 512 keys, giving
// realistic group fan-in per reducer.
func shuffleSegments(sc Scale) []*mapreduce.Segment {
	const payload = 100
	numSegs := max(sc.Segments, 1)
	perSeg := max(sc.Records/numSegs, 1)
	rng := rand.New(rand.NewSource(1))
	segs := make([]*mapreduce.Segment, numSegs)
	for i := range segs {
		segs[i] = &mapreduce.Segment{ID: i}
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

func shuffleJob(conf mapreduce.Config) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "bench/shuffle",
		Map: func(id int, seg *mapreduce.Segment, emit mapreduce.Emit) error {
			for i, rec := range seg.Records {
				emit(fmt.Sprintf("key-%d", (int(rec[0])*31+int(rec[1]))%512), int64(i), rec)
			}
			return nil
		},
		Reduce: func(_ int, _ string, values []mapreduce.Shuffled) error {
			for i := range values {
				_ = values[i].Value
			}
			return nil
		},
		Conf: conf,
	}
}
