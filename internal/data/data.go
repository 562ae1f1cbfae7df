// Package data generates the synthetic datasets standing in for the
// paper's proprietary corpora (GitHub archive, Bing query log, Twitter
// firehose, RedShift ad impressions — §6.1). The generators reproduce the
// properties the evaluation depends on:
//
//   - schema and field entropy (records carry the fields each query
//     touches plus realistic filler, so parse/scan cost is honest);
//   - group-count regimes, from a single group (B1) through tens (B2),
//     thousands (R1–R4) to records≈groups (B3, T1, G1–G4 scaled);
//   - global timestamp order across segments (the input contract of
//     §2.1), with the temporal patterns each query mines (outage gaps,
//     sessions, spam runs, campaign runs, pull-request windows).
//
// Everything is deterministic in the seed so experiments are repeatable.
package data

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/mapreduce"
)

// lineBuilder assembles a tab-separated record with minimal garbage.
type lineBuilder struct {
	buf []byte
}

func (b *lineBuilder) reset() { b.buf = b.buf[:0] }

func (b *lineBuilder) field(s string) {
	if len(b.buf) > 0 {
		b.buf = append(b.buf, '\t')
	}
	b.buf = append(b.buf, s...)
}

func (b *lineBuilder) intField(v int64) {
	if len(b.buf) > 0 {
		b.buf = append(b.buf, '\t')
	}
	b.buf = strconv.AppendInt(b.buf, v, 10)
}

func (b *lineBuilder) bytes() []byte {
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out
}

// segmented spreads records over n ordered segments of near-equal size,
// mirroring how a distributed file system splits a sorted log.
func segmented(records [][]byte, n int) []*mapreduce.Segment {
	if n <= 0 {
		n = 1
	}
	segs := make([]*mapreduce.Segment, n)
	for i := range segs {
		segs[i] = &mapreduce.Segment{ID: i}
	}
	for i, r := range records {
		s := segs[i*n/len(records)]
		s.Records = append(s.Records, r)
	}
	return segs
}

// filler returns a deterministic pseudo-payload of n bytes, standing in
// for the fields a query scans past and discards (the dominant byte cost
// in the paper's "complete" dataset variants).
func filler(r *rand.Rand, n int) string {
	if n <= 0 {
		return ""
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// maxFieldSpans bounds the leading fields the splitter can resolve in
// one scan; every query stays well under it.
const maxFieldSpans = 8

// fieldSpans is the tab-splitter behind the Field accessors: it scans
// rec once, recording [start, end) for each of the first upto fields
// (upto ≤ maxFieldSpans), and returns the number of fields found.
func fieldSpans(rec []byte, upto int, spans *[maxFieldSpans][2]int32) int {
	start, f := 0, 0
	for f < upto {
		end := start
		for end < len(rec) && rec[end] != '\t' {
			end++
		}
		spans[f] = [2]int32{int32(start), int32(end)}
		f++
		if end == len(rec) {
			break
		}
		start = end + 1
	}
	return f
}

// span returns the field's bytes, nil when it was not found.
func span(rec []byte, spans *[maxFieldSpans][2]int32, n, i int) []byte {
	if i >= n {
		return nil
	}
	return rec[spans[i][0]:spans[i][1]]
}

// Field extracts the i-th tab-separated field of rec without allocating.
// It returns nil when the field does not exist.
func Field(rec []byte, i int) []byte {
	var spans [maxFieldSpans][2]int32
	n := fieldSpans(rec, i+1, &spans)
	return span(rec, &spans, n, i)
}

// Field2 extracts fields i and j (i < j) in a single scan of rec.
// Missing fields come back nil. GroupBy functions are the mapper's
// per-record parse cost, so one pass instead of two matters there.
func Field2(rec []byte, i, j int) (fi, fj []byte) {
	var spans [maxFieldSpans][2]int32
	n := fieldSpans(rec, j+1, &spans)
	return span(rec, &spans, n, i), span(rec, &spans, n, j)
}

// Field3 extracts fields i, j and k (i < j < k) in a single scan.
func Field3(rec []byte, i, j, k int) (fi, fj, fk []byte) {
	var spans [maxFieldSpans][2]int32
	n := fieldSpans(rec, k+1, &spans)
	return span(rec, &spans, n, i), span(rec, &spans, n, j), span(rec, &spans, n, k)
}

// ParseInt parses a decimal int64 field; ok=false on malformed input.
func ParseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i = 1
		if len(b) == 1 {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// keyName formats compact group keys like "r123".
func keyName(prefix string, id int) string {
	return fmt.Sprintf("%s%d", prefix, id)
}

// activeSet models the temporal locality of real groupby keys: a GitHub
// repository or a Twitter hashtag is active for a bounded stretch of the
// timeline, not uniformly across years. The set holds k concurrently
// active groups and retires the oldest for a fresh one every rotate
// records, so each group's records concentrate in a contiguous slice of
// the log — which is why, at cluster scale, a group's records land in few
// mappers (paper §6.3–§6.4 shuffle behavior).
type activeSet struct {
	r      *rand.Rand
	ids    []int
	next   int
	total  int
	rotate int
	tick   int
}

// newActiveSet creates a rotation over total group IDs with k active at
// a time, retiring one every rotate records.
func newActiveSet(r *rand.Rand, total, k, rotate int) *activeSet {
	if k > total {
		k = total
	}
	if k < 1 {
		k = 1
	}
	if rotate < 1 {
		rotate = 1
	}
	s := &activeSet{r: r, total: total, rotate: rotate}
	for i := 0; i < k; i++ {
		s.ids = append(s.ids, i)
	}
	s.next = k
	return s
}

// pick returns the group ID for the next record.
func (s *activeSet) pick() int {
	s.tick++
	if s.tick%s.rotate == 0 && s.next < s.total {
		// Retire the slot of the oldest entry (round-robin) for a new
		// group; retired groups never return.
		s.ids[(s.next)%len(s.ids)] = s.next
		s.next++
	}
	return s.ids[s.r.Intn(len(s.ids))]
}
