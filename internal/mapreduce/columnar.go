package mapreduce

import (
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/obs"
)

// Columnar is a typed view of one segment's records: per plan field a
// query reads, one vector with an entry per row, so a batched GroupBy
// (internal/queries) scans vectors instead of re-splitting every record.
// It is derived state. A segment builds a column the first time a job
// reads it (Segment.Index) and keeps it while the segment is resident;
// Records stay authoritative, so the index holds nothing the queries do
// not read — no filler, no tail — and is never shipped or used to
// reconstruct a record.
//
// A row some read column could not type (too few fields, a field its
// parser rejects) is ragged for the view: its entries in the vectors
// hold nothing, and its raw bytes go to the scalar GroupBy. A reader
// walks rows in order, taking the ragged ones from Ragged.
type Columnar struct {
	// Cols holds one entry per plan field; only the fields read are
	// populated, the rest are zero (ColSkip).
	Cols []Col
	// Ragged lists the row indexes left to the scalar path, ascending:
	// the union of the read columns' Ragged.
	Ragged []int32
	// Records aliases the segment's records, a row each: where a ragged
	// row is read.
	Records [][]byte
}

// ColKind types one plan field.
type ColKind uint8

const (
	// ColSkip marks a field no query reads: it holds a position in the
	// plan, and nothing is stored for it.
	ColSkip ColKind = iota
	// ColInt holds one int64 per row, as the field's Parse returned it (a
	// decimal integer, a datetime as Unix seconds).
	ColInt
	// ColByte is ColInt for fields whose values fit a byte (0/1 flags):
	// a value outside [0, 255] is one the column could not type.
	ColByte
	// ColDict holds dictionary-coded strings: a code per row into Dict,
	// built in first-use order. A batched GroupBy translates each
	// dictionary entry once per segment instead of once per record.
	ColDict
)

// ColSpec describes one leading tab-separated field of a record.
type ColSpec struct {
	Kind ColKind
	// Parse converts the field's bytes for ColInt and ColByte; a false
	// return leaves the row untyped in this column. It must be the
	// function the scalar GroupBy applies to the same field, so both
	// paths see one value.
	Parse func(field []byte) (int64, bool)
}

// ColPlan is a dataset's index plan: one ColSpec per leading field, up
// to the last field some query reads (at most 64). Plans are compared by
// pointer.
type ColPlan struct {
	Fields []ColSpec
}

// ColSet names plan fields by position: bit f is field f.
type ColSet uint64

// String lists the fields, e.g. "0,3".
func (s ColSet) String() string {
	var fields []string
	for f := range 64 {
		if s&(1<<f) != 0 {
			fields = append(fields, strconv.Itoa(f))
		}
	}
	return strings.Join(fields, ",")
}

// ColRead is what one query reads of a segment's index: the dataset's
// plan, which the index is built under, and the fields of it it reads.
type ColRead struct {
	Plan   *ColPlan
	Fields ColSet
}

// Read names fields of p.
func (p *ColPlan) Read(fields ...int) ColRead {
	r := ColRead{Plan: p}
	for _, f := range fields {
		r.Fields |= 1 << f
	}
	return r
}

// Col is one indexed column. Exactly one representation is populated,
// chosen by Kind (none for ColSkip), with an entry per row.
type Col struct {
	Kind  ColKind
	Ints  []int64  // ColInt: value per row
	Bytes []uint8  // ColByte: value per row
	Codes []uint32 // ColDict: dictionary index per row
	// Dict holds the ColDict entries in first-use order. The strings
	// alias the bytes of the records they were first seen in, so they
	// are valid exactly as long as the segment is reachable and its
	// records unmodified.
	Dict []string
	// Ragged lists, ascending, the rows this column could not type; their
	// entries above are zero.
	Ragged []int32
}

// colIndex is a segment's resident index: the columns of one plan, each
// built the first time a read asks for it, and a view per field set
// read so far.
type colIndex struct {
	plan  *ColPlan
	rows  int
	cols  []Col
	built ColSet
	views map[ColSet]*Columnar
}

// Index returns the typed columns read names, building in one pass over
// the records the ones no earlier read built, and doing so again for all
// of them when the record count no longer matches the resident index
// (Records were replaced). It returns nil when the resident index was
// built under another plan: one segment keeps one index, and a query
// with a foreign plan groups scalar. A build is traced as an index span
// under parent, when there is one. Safe for concurrent use; a concurrent
// first touch of a column builds it once.
func (s *Segment) Index(read ColRead, parent *obs.ActiveSpan) *Columnar {
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := s.index
	if ix == nil || ix.rows != len(s.Records) {
		ix = &colIndex{plan: read.Plan, rows: len(s.Records), cols: make([]Col, len(read.Plan.Fields)), views: map[ColSet]*Columnar{}}
		s.index = ix
	}
	if ix.plan != read.Plan {
		return nil
	}
	if v := ix.views[read.Fields]; v != nil {
		return v
	}
	if missing := read.Fields &^ ix.built; missing != 0 {
		span := parent.Child(obs.KindIndex, missing.String()).Attr(obs.AttrRecords, int64(ix.rows))
		ix.build(s.Records, missing)
		runtime.KeepAlive(s)
		ix.built |= missing
		span.End()
	}
	v := &Columnar{Cols: make([]Col, len(ix.cols)), Records: s.Records}
	for f := range ix.cols {
		if read.Fields&(1<<f) != 0 {
			v.Cols[f] = ix.cols[f]
			v.Ragged = append(v.Ragged, ix.cols[f].Ragged...)
		}
	}
	slices.Sort(v.Ragged)
	v.Ragged = slices.Clip(slices.Compact(v.Ragged))
	ix.views[read.Fields] = v
	return v
}

// dictProbe is the stretch of rows a dictionary's size is judged on.
const dictProbe = 256

// build types the fields of set in one pass over records. Each row is
// split up to the last field in set; a field the row does not reach, or
// its parser rejects, leaves the row in that column's Ragged. A
// dictionary's table starts at dictProbe entries and, if at least half
// of the first dictProbe rows brought a new entry, is made once more at
// the size that rate predicts for the whole segment, capped at its row
// count; a column whose first stretch repeats keeps the small table.
func (ix *colIndex) build(records [][]byte, set ColSet) {
	last := bits.Len64(uint64(set)) - 1
	specs := ix.plan.Fields
	dicts := make([]*dictionary, last+1)
	for f := 0; f <= last; f++ {
		if set&(1<<f) == 0 {
			continue
		}
		col := &ix.cols[f]
		col.Kind = specs[f].Kind
		switch col.Kind {
		case ColInt:
			col.Ints = make([]int64, len(records))
		case ColByte:
			col.Bytes = make([]uint8, len(records))
		case ColDict:
			col.Codes = make([]uint32, len(records))
			dicts[f] = &dictionary{seed: maphash.MakeSeed()}
			dicts[f].size(nil, min(len(records), dictProbe))
		}
	}
	for ri, rec := range records {
		rest := rec
		for f := 0; f <= last; f++ {
			// A byte loop, not bytes.IndexByte: its vector loads run past a
			// short field into cache lines of the record no column needs,
			// which costs a first touch more than the loop when records are
			// out of cache.
			fb, present, tab := rest, rest != nil, 0
			for tab < len(rest) && rest[tab] != '\t' {
				tab++
			}
			if tab < len(rest) {
				fb, rest = rest[:tab], rest[tab+1:]
			} else {
				rest = nil
			}
			if set&(1<<f) == 0 {
				continue
			}
			col := &ix.cols[f]
			switch {
			case !present: // the row has fewer fields than f
				col.Ragged = append(col.Ragged, int32(ri))
			case col.Kind == ColDict:
				col.Codes[ri] = dicts[f].code(&col.Dict, fb)
			case col.Kind != ColSkip:
				v, ok := specs[f].Parse(fb)
				switch {
				case !ok || (col.Kind == ColByte && uint64(v) > 0xFF):
					col.Ragged = append(col.Ragged, int32(ri))
				case col.Kind == ColInt:
					col.Ints[ri] = v
				default:
					col.Bytes[ri] = uint8(v)
				}
			}
		}
		if ri == dictProbe-1 {
			for f, d := range dicts {
				if col := &ix.cols[f]; d != nil && 2*len(col.Dict) >= dictProbe {
					d.size(col.Dict, min(len(col.Dict)*len(records)/dictProbe, len(records)))
				}
			}
		}
	}
	for f, d := range dicts {
		if d != nil {
			ix.cols[f].Dict = slices.Clone(ix.cols[f].Dict)
		}
	}
}

// dictionary finds a ColDict column's codes by value while the column is
// built: an open-addressed table of code+1 (0 is an empty slot), probed
// linearly from the value's hash and kept at most half full.
type dictionary struct {
	seed  maphash.Seed
	slots []uint32
}

// size makes the table for n entries and enters dict's.
func (d *dictionary) size(dict []string, n int) {
	d.slots = make([]uint32, 1<<bits.Len(uint(2*n)))
	mask := uint64(len(d.slots) - 1)
	for code, s := range dict {
		i := maphash.String(d.seed, s) & mask
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = uint32(code) + 1
	}
}

// code returns fb's code in *dict, appending fb — as a view of its
// record's bytes — when it is new. No view leaves the map task that
// reads the index: keys reach runs, the serve Part and result lines only
// as copies, so a view is never read after its segment is released.
func (d *dictionary) code(dict *[]string, fb []byte) uint32 {
	mask := uint64(len(d.slots) - 1)
	for i := maphash.Bytes(d.seed, fb) & mask; ; i = (i + 1) & mask {
		switch c := d.slots[i]; {
		case c == 0:
			*dict = append(*dict, unsafe.String(unsafe.SliceData(fb), len(fb)))
			d.slots[i] = uint32(len(*dict))
			if 2*len(*dict) > len(d.slots) {
				d.size(*dict, len(*dict))
			}
			return uint32(len(*dict) - 1)
		case (*dict)[c-1] == string(fb):
			return c - 1
		}
	}
}
