package queries

import (
	"testing"

	"repro/internal/data"
	"repro/internal/mapreduce"
)

// columnarDatasets is smallDatasets with the columnar form attached to
// every segment — the corpora the golden digests pin, now carrying
// columns for vectorized grouping.
func columnarDatasets(segments int) map[string][]*mapreduce.Segment {
	datasets := smallDatasets(segments)
	for name, segs := range datasets {
		data.Columnarize(segs, data.ColSpecFor(name))
	}
	return datasets
}

// reshipColumns round-trips every segment's columns through the
// columnar segment codec — the bytes a multi-node shuffle would put on
// the wire — and returns fresh segments carrying the decoded columns
// over the same record slices.
func reshipColumns(t *testing.T, segs []*mapreduce.Segment, compress bool) []*mapreduce.Segment {
	t.Helper()
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		if seg.Columns == nil {
			t.Fatalf("segment %d has no columns to ship", seg.ID)
		}
		cols, err := mapreduce.DecodeColumnar(mapreduce.EncodeColumnar(seg.Columns, compress))
		if err != nil {
			t.Fatalf("segment %d: columnar codec round trip (compress=%v): %v", seg.ID, compress, err)
		}
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records, Columns: cols}
	}
	return out
}

// stripColumns returns the same segments without their columnar form.
func stripColumns(segs []*mapreduce.Segment) []*mapreduce.Segment {
	out := make([]*mapreduce.Segment, len(segs))
	for i, seg := range segs {
		out[i] = &mapreduce.Segment{ID: seg.ID, Records: seg.Records}
	}
	return out
}

// TestColumnarBatchBoundaries is the metamorphic batch-boundary check:
// summaries compose associatively, so any placement of the batch
// boundary — one segment or many — must reproduce the sequential digest
// exactly. Sweeps segment counts over columnar segments for every query.
func TestColumnarBatchBoundaries(t *testing.T) {
	for _, segments := range []int{1, 4, 9} {
		datasets := columnarDatasets(segments)
		for _, spec := range All() {
			segs := datasets[spec.Dataset]
			want, err := spec.Sequential(segs)
			if err != nil {
				t.Fatalf("%s: sequential: %v", spec.ID, err)
			}
			got, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
			if err != nil {
				t.Fatalf("%s segments=%d: %v", spec.ID, segments, err)
			}
			if got.Digest != want.Digest || got.NumResults != want.NumResults {
				t.Errorf("%s segments=%d: digest %016x (%d results) != sequential %016x (%d)",
					spec.ID, segments, got.Digest, got.NumResults, want.Digest, want.NumResults)
			}
		}
	}
}

// TestColumnarMatchesScalarStats pins the work accounting of the two
// grouping forms on one query per symbolic regime: vectorized GroupBy
// over columns keeps exactly the records the scalar GroupBy keeps (the
// input form moves parse work, it must never change how many records
// execute), and run probes occur where event columns actually repeat.
func TestColumnarMatchesScalarStats(t *testing.T) {
	datasets := columnarDatasets(goldenSegments)
	for _, id := range []string{"G1", "B2", "R1"} {
		spec := ByID(id)
		segs := datasets[spec.Dataset]
		scalar, err := spec.Symple(stripColumns(segs), mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s rows: %v", id, err)
		}
		batch, err := spec.Symple(segs, mapreduce.Config{NumReducers: 2})
		if err != nil {
			t.Fatalf("%s columns: %v", id, err)
		}
		if batch.Sym.Records != scalar.Sym.Records {
			t.Errorf("%s: executed %d records over columns, %d over rows", id, batch.Sym.Records, scalar.Sym.Records)
		}
		if id == "R1" && batch.Sym.RunProbes == 0 {
			t.Errorf("%s: no run probes — unit events must form runs", id)
		}
		if batch.Digest != scalar.Digest {
			t.Errorf("%s: digests diverge: columns %016x rows %016x", id, batch.Digest, scalar.Digest)
		}
	}
}
