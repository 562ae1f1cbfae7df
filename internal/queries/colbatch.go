package queries

import (
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
)

// Vectorized GroupBy (core.Query.GroupByBatch) for the 12 queries. Each
// query compiles its per-chunk plan once — shape-checking the columns it
// reads and translating low-cardinality dictionaries up front — then
// scans the column vectors row by row. Dictionary translation is the
// batch path's branch-free form of the enum predicates the scalar
// GroupBy evaluates per record: GithubOpFromName / CountryIndex /
// CampaignIndex run once per distinct dictionary entry, and the
// per-record filter collapses to one table load and sign test instead of
// a byte-comparison cascade. Ragged rows (and whole chunks whose columns
// don't match the expected shape) fall back to the scalar GroupBy, so
// the batch path never changes which rows are kept or what they yield —
// pinned by the golden digests, which every SYMPLE job reaches through
// this path, and the metamorphic tests. A query's Columns are the fields
// its scalar GroupBy extracts, so a row is dense for it exactly when
// those fields are there and parse.

// The index plans, one per dataset: the leading fields some query below
// reads, parsed by the function the scalar GroupBy applies to the same
// field. Fields no query reads are skipped, and everything past the last
// read field is not in the plan at all.
var (
	colDecimal = mapreduce.ColSpec{Kind: mapreduce.ColInt, Parse: data.ParseInt}
	colFlag    = mapreduce.ColSpec{Kind: mapreduce.ColByte, Parse: data.ParseInt}
	colDict    = mapreduce.ColSpec{Kind: mapreduce.ColDict}
	colSkip    = mapreduce.ColSpec{Kind: mapreduce.ColSkip}

	// ts repo op [actor payload…]
	githubPlan = &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{colDecimal, colDict, colDict}}
	// ts user geo ok [query…]
	bingPlan = &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{colDecimal, colDict, colDict, colFlag}}
	// ts hashtag user spam [text…]
	twitterPlan = &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{colSkip, colDict, colSkip, colFlag}}
	// datetime advertiser campaign country [imp url …]
	redshiftPlan = &mapreduce.ColPlan{Fields: []mapreduce.ColSpec{
		{Kind: mapreduce.ColInt, Parse: parseRedshiftTime}, colDict, colDict, colDict}}
)

// col returns column i if the view holds it typed as kind, else nil.
func col(c *mapreduce.Columnar, i int, kind mapreduce.ColKind) *mapreduce.Col {
	if i >= len(c.Cols) || c.Cols[i].Kind != kind {
		return nil
	}
	return &c.Cols[i]
}

// keyInterner assigns first-use key indexes. The common case — keys come
// from one dictionary column — is a direct code→index table; the string
// map exists only once a ragged row (or a non-dictionary key) shows up,
// and the two stay consistent so a key reached both ways interns once.
type keyInterner struct {
	byCode []int32
	m      map[string]int32
}

func newKeyInterner(codes int) keyInterner {
	byCode := make([]int32, codes)
	for i := range byCode {
		byCode[i] = -1
	}
	return keyInterner{byCode: byCode}
}

// code interns the key named by a dictionary code. Until a key has come
// in by value there is no string map to consult: dictionary entries are
// distinct, so a code not seen before is a key not seen before.
func (in *keyInterner) code(keys *[]string, code uint32, name string) int32 {
	if ki := in.byCode[code]; ki >= 0 {
		return ki
	}
	var ki int32
	if in.m == nil {
		if cap(*keys) == 0 {
			*keys = make([]string, 0, len(in.byCode)) // at most a key per code
		}
		ki = int32(len(*keys))
		*keys = append(*keys, name)
	} else {
		ki = in.str(keys, name)
	}
	in.byCode[code] = ki
	return ki
}

// str interns a key by value, building the map on first need.
func (in *keyInterner) str(keys *[]string, key string) int32 {
	if in.m == nil {
		in.m = make(map[string]int32, len(*keys)+8)
		for i, k := range *keys {
			in.m[k] = int32(i)
		}
	}
	if ki, ok := in.m[key]; ok {
		return ki
	}
	ki := int32(len(*keys))
	*keys = append(*keys, key)
	in.m[key] = ki
	return ki
}

// coded interns the key dictionary column c codes for row.
func (in *keyInterner) coded(keys *[]string, c *mapreduce.Col, row int) int32 {
	code := c.Codes[row]
	return in.code(keys, code, c.Dict[code])
}

// makeGroupByBatch adapts a per-segment compile step into the engine's
// GroupByBatch contract. compile shape-checks the columns and returns
// the emitter for a stretch [lo, hi) of consecutive dense rows (nil →
// the whole segment falls back to scalar); ragged rows always go through
// the scalar groupBy, interned into the same key space, in row order
// with the dense ones.
func makeGroupByBatch[E any](
	groupBy func([]byte) (string, E, bool),
	compile func(cols *mapreduce.Columnar, b *core.Batch[E], in *keyInterner) func(lo, hi int),
) func(*mapreduce.Columnar, *core.Batch[E]) bool {
	return func(cols *mapreduce.Columnar, b *core.Batch[E]) bool {
		b.Reset()
		rows := len(cols.Records)
		b.KeyIdx = slices.Grow(b.KeyIdx, rows)
		b.Rows = slices.Grow(b.Rows, rows)
		b.Events = slices.Grow(b.Events, rows)
		var in keyInterner
		emit := compile(cols, b, &in)
		if emit == nil {
			return false
		}
		// Dense rows go to the emitter a stretch at a time: the whole
		// segment in one call when nothing is ragged.
		row := 0
		for _, ragRow := range cols.Ragged {
			emit(row, int(ragRow))
			row = int(ragRow) + 1
			key, ev, kept := groupBy(cols.Records[ragRow])
			if kept {
				b.Add(in.str(&b.Keys, key), ragRow, ev)
			}
		}
		emit(row, rows)
		return true
	}
}

// dictTable translates a dictionary once per chunk: entry i is index of
// dictionary entry i, −1 for a name index does not know.
func dictTable(dict []string, index func([]byte) int) []int64 {
	t := make([]int64, len(dict))
	for i, s := range dict {
		t[i] = int64(index([]byte(s)))
	}
	return t
}

// compileGithubOp is the shared G1/G2/G3 shape: key = repo (field 1),
// event = op code (field 2), unknown ops dropped.
func compileGithubOp(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	repoCol, opCol := col(cols, 1, mapreduce.ColDict), col(cols, 2, mapreduce.ColDict)
	if repoCol == nil || opCol == nil {
		return nil
	}
	ops := dictTable(opCol.Dict, data.GithubOpFromName)
	*in = newKeyInterner(len(repoCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			op := ops[opCol.Codes[row]]
			if op < 0 {
				continue
			}
			b.Add(in.coded(&b.Keys, repoCol, row), int32(row), op)
		}
	}
}

// compileG4: key = repo, event = {op, ts}, only branch create/delete.
func compileG4(cols *mapreduce.Columnar, b *core.Batch[g4Event], in *keyInterner) func(lo, hi int) {
	tsCol, repoCol, opCol := col(cols, 0, mapreduce.ColInt), col(cols, 1, mapreduce.ColDict), col(cols, 2, mapreduce.ColDict)
	if tsCol == nil || repoCol == nil || opCol == nil {
		return nil
	}
	ops := dictTable(opCol.Dict, func(name []byte) int {
		if op := data.GithubOpFromName(name); op == data.OpBranchCreate || op == data.OpBranchDelete {
			return op
		}
		return -1
	})
	*in = newKeyInterner(len(repoCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			op := ops[opCol.Codes[row]]
			if op < 0 {
				continue
			}
			b.Add(in.coded(&b.Keys, repoCol, row), int32(row), g4Event{Op: op, Ts: tsCol.Ints[row]})
		}
	}
}

// compileB1: single constant group, event = ts, successful queries only.
func compileB1(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	tsCol, okCol := col(cols, 0, mapreduce.ColInt), col(cols, 3, mapreduce.ColByte)
	if tsCol == nil || okCol == nil {
		return nil
	}
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			if okCol.Bytes[row] != 1 {
				continue
			}
			b.Add(in.str(&b.Keys, "all"), int32(row), tsCol.Ints[row])
		}
	}
}

// compileB2: key = geo, event = ts, successful queries only.
func compileB2(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	tsCol, geoCol, okCol := col(cols, 0, mapreduce.ColInt), col(cols, 2, mapreduce.ColDict), col(cols, 3, mapreduce.ColByte)
	if tsCol == nil || geoCol == nil || okCol == nil {
		return nil
	}
	*in = newKeyInterner(len(geoCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			if okCol.Bytes[row] != 1 {
				continue
			}
			b.Add(in.coded(&b.Keys, geoCol, row), int32(row), tsCol.Ints[row])
		}
	}
}

// compileB3: key = user, event = ts, no filter.
func compileB3(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	tsCol, userCol := col(cols, 0, mapreduce.ColInt), col(cols, 1, mapreduce.ColDict)
	if tsCol == nil || userCol == nil {
		return nil
	}
	*in = newKeyInterner(len(userCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			b.Add(in.coded(&b.Keys, userCol, row), int32(row), tsCol.Ints[row])
		}
	}
}

// compileT1: key = hashtag, event = spam flag, flag must be 0 or 1.
func compileT1(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	tagCol, spamCol := col(cols, 1, mapreduce.ColDict), col(cols, 3, mapreduce.ColByte)
	if tagCol == nil || spamCol == nil {
		return nil
	}
	*in = newKeyInterner(len(tagCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			spam := int64(spamCol.Bytes[row])
			if spam > 1 {
				continue
			}
			b.Add(in.coded(&b.Keys, tagCol, row), int32(row), spam)
		}
	}
}

// compileR1: key = advertiser, unit event, no filter (a dense row always
// has its advertiser field).
func compileR1(cols *mapreduce.Columnar, b *core.Batch[struct{}], in *keyInterner) func(lo, hi int) {
	advCol := col(cols, 1, mapreduce.ColDict)
	if advCol == nil {
		return nil
	}
	*in = newKeyInterner(len(advCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			b.Add(in.coded(&b.Keys, advCol, row), int32(row), struct{}{})
		}
	}
}

// compileR2: key = advertiser, event = country index, unknown dropped.
func compileR2(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	advCol, ccCol := col(cols, 1, mapreduce.ColDict), col(cols, 3, mapreduce.ColDict)
	if advCol == nil || ccCol == nil {
		return nil
	}
	ccs := dictTable(ccCol.Dict, data.CountryIndex)
	*in = newKeyInterner(len(advCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			cc := ccs[ccCol.Codes[row]]
			if cc < 0 {
				continue
			}
			b.Add(in.coded(&b.Keys, advCol, row), int32(row), cc)
		}
	}
}

// compileR3: key = advertiser, event = the datetime column, which the
// index holds as Unix seconds (rows it could not parse are ragged).
func compileR3(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	dtCol, advCol := col(cols, 0, mapreduce.ColInt), col(cols, 1, mapreduce.ColDict)
	if dtCol == nil || advCol == nil {
		return nil
	}
	*in = newKeyInterner(len(advCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			b.Add(in.coded(&b.Keys, advCol, row), int32(row), dtCol.Ints[row])
		}
	}
}

// compileR4: key = advertiser, event = campaign index, unknown dropped.
func compileR4(cols *mapreduce.Columnar, b *core.Batch[int64], in *keyInterner) func(lo, hi int) {
	advCol, campCol := col(cols, 1, mapreduce.ColDict), col(cols, 2, mapreduce.ColDict)
	if advCol == nil || campCol == nil {
		return nil
	}
	camps := dictTable(campCol.Dict, data.CampaignIndex)
	*in = newKeyInterner(len(advCol.Dict))
	return func(lo, hi int) {
		for row := lo; row < hi; row++ {
			c := camps[campCol.Codes[row]]
			if c < 0 {
				continue
			}
			b.Add(in.coded(&b.Keys, advCol, row), int32(row), c)
		}
	}
}
