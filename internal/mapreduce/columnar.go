package mapreduce

import (
	"bytes"
	"slices"
	"unsafe"
)

// Columnar is a typed index over one segment's records: per field some
// query reads, one vector with an entry per row, so a batched GroupBy
// (internal/queries) scans vectors instead of re-splitting every record.
// It is derived state. A segment builds it the first time a job asks
// (Segment.Index) and keeps it while the segment is resident; Records
// stay authoritative, so the index holds nothing the queries do not read
// — no filler, no tail — and is never shipped or used to reconstruct a
// record.
//
// Rows that do not fit the plan (too few fields, a field its parser
// rejects) are ragged: the typed vectors skip them, staying dense, and
// their raw bytes go to the scalar GroupBy. A reader walks rows in
// order, interleaving dense and ragged rows by ascending row index.
type Columnar struct {
	// Plan is the plan the index was built under; a query reads the
	// index only when this is its own plan.
	Plan *ColPlan
	// Rows is the total row count, dense plus ragged.
	Rows int
	// Cols holds one entry per plan field. Every indexed column has
	// exactly Rows − len(Ragged) dense entries, in row order.
	Cols []Col
	// Ragged lists the row indexes left to the scalar path, ascending.
	Ragged []int32
	// RaggedRecs aliases the record of each ragged row, parallel to
	// Ragged.
	RaggedRecs [][]byte
}

// ColKind types one plan field.
type ColKind uint8

const (
	// ColSkip marks a field no query reads: it must be present for the
	// row to be dense, but nothing is stored for it.
	ColSkip ColKind = iota
	// ColInt holds one int64 per dense row, as the field's Parse
	// returned it (a decimal integer, a datetime as Unix seconds).
	ColInt
	// ColByte is ColInt for fields whose values fit a byte (0/1 flags):
	// a row whose value falls outside [0, 255] is ragged.
	ColByte
	// ColDict holds dictionary-coded strings: a code per dense row into
	// Dict, built in first-use order. A batched GroupBy translates each
	// dictionary entry once per segment instead of once per record.
	ColDict
)

// ColSpec describes one leading tab-separated field of a record.
type ColSpec struct {
	Kind ColKind
	// Parse converts the field's bytes for ColInt and ColByte; a false
	// return makes the row ragged. It must be the function the scalar
	// GroupBy applies to the same field, so both paths see one value.
	Parse func(field []byte) (int64, bool)
}

// ColPlan is a dataset's index plan: one ColSpec per leading field, up
// to the last field some query reads. Plans are compared by pointer.
type ColPlan struct {
	Fields []ColSpec
}

// Col is one indexed column. Exactly one representation is populated,
// chosen by Kind (none for ColSkip).
type Col struct {
	Kind  ColKind
	Ints  []int64  // ColInt: value per dense row
	Bytes []uint8  // ColByte: value per dense row
	Codes []uint32 // ColDict: dictionary index per dense row
	// Dict holds the ColDict entries in first-use order. The strings
	// alias the bytes of the records they were first seen in, so they
	// are valid exactly as long as those records are unmodified.
	Dict []string
}

// Index returns the segment's typed columns under plan, building them
// on the first call and whenever the record count no longer matches the
// resident index (Records were replaced). It returns nil when the
// resident index was built under a different plan: one segment keeps
// one index, and a query with a foreign plan groups scalar. Safe for
// concurrent use; a concurrent first touch builds once.
func (s *Segment) Index(plan *ColPlan) *Columnar {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil || s.index.Rows != len(s.Records) {
		var total int64
		s.index, total = buildIndex(s.Records, plan)
		s.size.Store(&extent{rows: len(s.Records), bytes: total})
	}
	if s.index.Plan != plan {
		return nil
	}
	return s.index
}

// buildIndex scans records once under plan, returning the index and the
// records' total size. Vectors are sized to the row count up front,
// which is exact unless rows turn out ragged; then they are cut down to
// the dense count.
func buildIndex(records [][]byte, plan *ColPlan) (*Columnar, int64) {
	c := &Columnar{Plan: plan, Rows: len(records), Cols: make([]Col, len(plan.Fields))}
	dicts := make([]map[string]uint32, len(plan.Fields))
	for f, spec := range plan.Fields {
		col := &c.Cols[f]
		col.Kind = spec.Kind
		switch spec.Kind {
		case ColInt:
			col.Ints = make([]int64, 0, len(records))
		case ColByte:
			col.Bytes = make([]uint8, 0, len(records))
		case ColDict:
			col.Codes = make([]uint32, 0, len(records))
			dicts[f] = make(map[string]uint32, 64)
		}
	}
	fields := make([][]byte, len(plan.Fields))
	ints := make([]int64, len(plan.Fields))
	var total int64
rows:
	for ri, rec := range records {
		total += int64(len(rec))
		rest := rec
		for f, spec := range plan.Fields {
			if rest == nil {
				c.addRagged(ri, rec) // fewer fields than the plan types
				continue rows
			}
			fb := rest
			if tab := bytes.IndexByte(rest, '\t'); tab >= 0 {
				fb, rest = rest[:tab], rest[tab+1:]
			} else {
				rest = nil
			}
			fields[f] = fb
			if spec.Kind == ColInt || spec.Kind == ColByte {
				v, ok := spec.Parse(fb)
				if !ok || (spec.Kind == ColByte && uint64(v) > 0xFF) {
					c.addRagged(ri, rec)
					continue rows
				}
				ints[f] = v
			}
		}
		for f := range plan.Fields {
			col := &c.Cols[f]
			switch col.Kind {
			case ColInt:
				col.Ints = append(col.Ints, ints[f])
			case ColByte:
				col.Bytes = append(col.Bytes, uint8(ints[f]))
			case ColDict:
				fb := fields[f]
				code, seen := dicts[f][string(fb)]
				if !seen {
					code = uint32(len(col.Dict))
					s := unsafe.String(unsafe.SliceData(fb), len(fb))
					col.Dict = append(col.Dict, s)
					dicts[f][s] = code
				}
				col.Codes = append(col.Codes, code)
			}
		}
	}
	for f := range c.Cols {
		col := &c.Cols[f]
		col.Dict = slices.Clone(col.Dict)
		if len(c.Ragged) > 0 {
			col.Ints = slices.Clone(col.Ints)
			col.Bytes = slices.Clone(col.Bytes)
			col.Codes = slices.Clone(col.Codes)
		}
	}
	return c, total
}

func (c *Columnar) addRagged(row int, rec []byte) {
	c.Ragged = append(c.Ragged, int32(row))
	c.RaggedRecs = append(c.RaggedRecs, rec)
}

// Dense returns the number of dense rows.
func (c *Columnar) Dense() int { return c.Rows - len(c.Ragged) }
