package bench

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
)

// testScale keeps experiment tests fast while preserving the paper's
// group-count regimes.
var testScale = Scale{Records: 20000, Segments: 8}

var (
	dsOnce sync.Once
	ds     *Datasets
)

func testDatasets() *Datasets {
	dsOnce.Do(func() { ds = GenDatasets(testScale) })
	return ds
}

func cell(t *testing.T, tb *Table, rowLabel string, col int) string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == rowLabel {
			if col >= len(r) {
				t.Fatalf("row %q has %d cells", rowLabel, len(r))
			}
			return r[col]
		}
	}
	t.Fatalf("row %q not found in %q", rowLabel, tb.Title)
	return ""
}

func numCell(t *testing.T, tb *Table, rowLabel string, col int) float64 {
	t.Helper()
	s := cell(t, tb, rowLabel, col)
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q/%d = %q is not numeric", rowLabel, col, s)
	}
	return v
}

func TestTable1(t *testing.T) {
	tb, err := Table1(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tb.Rows))
	}
	// Group-count regimes (Table 1's structure).
	if g := numCell(t, tb, "B1", 2); g != 1 {
		t.Errorf("B1 groups = %v, want 1", g)
	}
	if g := numCell(t, tb, "B2", 2); g != 50 {
		t.Errorf("B2 groups = %v, want 50", g)
	}
	if g := numCell(t, tb, "R1", 2); g != 100 {
		t.Errorf("R1 groups = %v, want 100", g)
	}
	if g := numCell(t, tb, "B3", 2); g < float64(testScale.Records)/10 {
		t.Errorf("B3 groups = %v, want records-scale", g)
	}
}

func TestFig5Shapes(t *testing.T) {
	tb, err := Fig5(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows, want 12 (G1-G4, R1-R4, R1c-R4c)", len(tb.Rows))
	}
	// The condensed regime (the paper's 2.5–5.9x) is where reading stops
	// bounding the job and the reduce side decides it. Its speedups are a
	// few milliseconds of measured reduce wall time scaled ~6000x, and
	// swing 1.8–6x from run to run at this scale (EXPERIMENTS.md), so the
	// shape is pinned on counts that repeat: every SYMPLE mapper ships one
	// element per advertiser it saw — the groups are persistent, so at most
	// one per (mapper, advertiser) — and the baseline's reducers see
	// records by the tens for each one SYMPLE's see. The wall clock is held
	// only to SYMPLE not losing.
	for _, id := range []string{"R1", "R2", "R3", "R4"} {
		m, err := runPair(testDatasets(), id, true, 5)
		if err != nil {
			t.Fatal(err)
		}
		sy, base := m.symple, m.baseline.Metrics
		shipped := sy.Metrics.ShuffleRecords
		if int64(sy.Sym.Summaries) != shipped {
			t.Errorf("%sc shipped %d elements for %d (mapper, advertiser) groups, want one each", id, sy.Sym.Summaries, shipped)
		}
		if bound := int64(len(sy.Metrics.MapTasks)) * sy.Metrics.Groups; shipped > bound {
			t.Errorf("%sc shipped %d groups, more than %d mappers × %d advertisers", id, shipped, len(sy.Metrics.MapTasks), sy.Metrics.Groups)
		}
		if ratio := base.ShuffleRecords / shipped; ratio < 20 {
			t.Errorf("%sc: the baseline's reducers see %d records, SYMPLE's %d — %dx, want ≥ 20x", id, base.ShuffleRecords, shipped, ratio)
		}
		if s := numCell(t, tb, id+"c", 3); s <= 1 {
			t.Errorf("%sc speedup %.2fx: SYMPLE should not lose", id, s)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	tb, err := Fig6(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	// Persistent-group RedShift queries see at least an order of
	// magnitude; the github queries see single to double digits.
	if r := numCell(t, tb, "R1", 3); r < 10 {
		t.Errorf("R1 reduction %.0fx, want ≥ 10x", r)
	}
	if r := numCell(t, tb, "R1c", 3); r < 100 {
		t.Errorf("R1c reduction %.0fx, want ≥ 100x", r)
	}
	if r := numCell(t, tb, "G1", 3); r < 2 {
		t.Errorf("G1 reduction %.0fx, want ≥ 2x", r)
	}
}

func TestFig7Shapes(t *testing.T) {
	tb, err := Fig7(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tb.Rows))
	}
	// B3 is the paper's no-win case (§6.5): a mapper sees about one event
	// per group, so lifting the UDA into mappers buys nothing. Its CPU
	// ratio is a sub-millisecond wall clock at this scale and swings
	// across 1.0 from run to run, so the shape is pinned on counts that
	// repeat: B3's (mapper, user) groups are small enough to ship their
	// events — the baseline's cost, no symbolic execution — and every
	// group ships exactly one element. Symbolic execution is measured on
	// the rows whose groups are larger than that: all of B2's and most of
	// G1's, below.
	b3, err := runPair(testDatasets(), "B3", false, cluster380Reducers)
	if err != nil {
		t.Fatal(err)
	}
	groups, sym := b3.symple.Metrics.ShuffleRecords, b3.symple.Sym
	if int64(sym.Summaries) != groups {
		t.Errorf("B3 shipped %d elements for %d (mapper, key) groups, want one each", sym.Summaries, groups)
	}
	if share := float64(sym.Events) / float64(groups); share < 0.95 {
		t.Errorf("B3 shipped %d of %d groups (%.0f%%) as events, want nearly all", sym.Events, groups, 100*share)
	}
	// B2 and G1 save CPU.
	// B2's measured reduce CPU is sub-millisecond at test scale, so its
	// ratio is noisy; assert only that SYMPLE is not badly behind. The
	// full-scale run (cmd/symplebench) shows the paper's clear win.
	if s := numCell(t, tb, "B2", 3); s < 0.7 {
		t.Errorf("B2 savings %.2fx, want ≥ 0.7x", s)
	}
	if s := numCell(t, tb, "G1", 3); s < 1.1 {
		t.Errorf("G1 savings %.2fx, want > 1.1x", s)
	}
}

func TestFig8Shapes(t *testing.T) {
	tb, err := Fig8(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	// B1 is the extreme bar: at least four orders of magnitude.
	if r := numCell(t, tb, "B1", 3); r < 1e4 {
		t.Errorf("B1 reduction %.0fx, want ≥ 10000x", r)
	}
	// B3 and T1 are the least-savings bars.
	if r := numCell(t, tb, "T1", 3); r > 100 {
		t.Errorf("T1 reduction %.0fx: expected small", r)
	}
}

// TestB1LatencyShape pins the hot-reducer shape on traced span
// cardinalities instead of wall clocks. The earlier form asserted the
// simulated speedup ratio, which is driven by a sub-millisecond measured
// reduce duration and swings ±40% with allocator state; the structural
// fact behind the paper's 49x — the baseline funnels every record
// through one reduce group while SYMPLE hands that group one summary
// bundle per mapper — is exact in the trace and identical on every run.
func TestB1LatencyShape(t *testing.T) {
	d := testDatasets()
	spec := queries.ByID("B1")
	segs, err := d.For(spec.Dataset, false)
	if err != nil {
		t.Fatal(err)
	}

	baseSink := obs.NewMemSink()
	if _, err := spec.Baseline(segs, mapreduce.Config{
		NumReducers: 4, Trace: obs.NewTrace(baseSink)}); err != nil {
		t.Fatal(err)
	}
	sympSink := obs.NewMemSink()
	symp, err := spec.Symple(segs, mapreduce.Config{
		NumReducers: 4, Trace: obs.NewTrace(sympSink)})
	if err != nil {
		t.Fatal(err)
	}
	// reduced sums the groups of a trace's compose spans — one per
	// reduce attempt — and returns the most values one attempt reduced.
	reduced := func(sink *obs.MemSink) (groups, values int64) {
		for _, sp := range sink.Spans() {
			if sp.Kind == obs.KindCompose {
				groups += sp.Attr(obs.AttrGroups)
				if v := sp.Attr(obs.AttrValues); v > values {
					values = v
				}
			}
		}
		return groups, values
	}

	// Baseline: one reduce group consumes every parsed record.
	groups, hotValues := reduced(baseSink)
	if groups != 1 {
		t.Fatalf("B1 baseline reduced %d groups, want exactly 1", groups)
	}
	if hotValues < int64(testScale.Records)/2 {
		t.Errorf("hot reduce group consumed %d values, want records-scale (%d)",
			hotValues, testScale.Records)
	}

	// SYMPLE: the same group composes a handful of summaries — bounded by
	// a small constant per mapper, not by the record count.
	if groups, _ := reduced(sympSink); groups != 1 {
		t.Fatalf("B1 symple composed %d groups, want exactly 1", groups)
	}
	summaries := int64(symp.Sym.Summaries)
	if summaries < int64(testScale.Segments) {
		t.Errorf("compose saw %d summaries, want ≥ one per mapper (%d)",
			summaries, testScale.Segments)
	}
	if lim := int64(8 * testScale.Segments); summaries > lim {
		t.Errorf("compose saw %d summaries for %d mappers — bundle size is not bounded",
			summaries, testScale.Segments)
	}
	if ratio := hotValues / summaries; ratio < 100 {
		t.Errorf("reducer work ratio %dx (hot %d values vs %d summaries), want ≥ 100x",
			ratio, hotValues, summaries)
	}

	// Sanity on the simulated end-to-end claim, without leaning on the
	// noisy magnitude: SYMPLE must win.
	tb, err := B1Latency(d)
	if err != nil {
		t.Fatal(err)
	}
	if sp := numCell(t, tb, "Speedup", 1); sp <= 1 {
		t.Errorf("B1 simulated speedup %.2fx, want > 1x (paper: ~49x)", sp)
	}
}

func TestAblations(t *testing.T) {
	if _, err := AblationMerging(testDatasets()); err != nil {
		t.Fatal(err)
	}
	tb, err := AblationPathCap(testDatasets())
	if err != nil {
		t.Fatal(err)
	}
	// The cap acts where a group is explored, so its subject is R4's
	// groups — an advertiser's impressions, hundreds per mapper, far
	// larger than any that ships its events: cap 1 must force restarts
	// (R4 holds two paths after a record) and the paper's 8 must not.
	// B3's groups here all ship their events, so no cap may move its row.
	restarts := map[string]map[string]int{"B3": {}, "R4": {}}
	for _, r := range tb.Rows {
		restarts[r[0]][r[1]], _ = strconv.Atoi(r[2])
	}
	if restarts["R4"]["1"] == 0 {
		t.Error("R4 cap=1 produced no restarts")
	}
	if v := restarts["R4"]["8"]; v != 0 {
		t.Errorf("R4 cap=8 restarts = %d, want 0", v)
	}
	for cap, v := range restarts["B3"] {
		if v != 0 {
			t.Errorf("B3 cap=%s restarts = %d: a group that ships its events was explored", cap, v)
		}
	}
	if _, err := AblationCompose(16, 200); err != nil {
		t.Fatal(err)
	}
}

func TestFig4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 is wall-clock heavy")
	}
	tb, err := Fig4(Scale{Records: 10000, Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		for i, c := range r[1:] {
			if c == "-" {
				t.Errorf("%s column %d missing throughput", r[0], i+1)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "a    bb", "333  4", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := []struct {
		b    int64
		want string
	}{
		{512, "512 B"}, {2048, "2.00 KB"}, {3 << 20, "3.00 MB"}, {5 << 30, "5.00 GB"},
	}
	for _, c := range cases {
		if got := fmtBytes(c.b); got != c.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", c.b, got, c.want)
		}
	}
	if got := fmtDurS(30); got != "30.0 s" {
		t.Errorf("fmtDurS(30) = %q", got)
	}
	if got := fmtDurS(120); got != "2.0 min" {
		t.Errorf("fmtDurS(120) = %q", got)
	}
	if got := fmtDurS(7200); got != "2.0 h" {
		t.Errorf("fmtDurS(7200) = %q", got)
	}
}

func TestDatasetsFor(t *testing.T) {
	d := testDatasets()
	for _, name := range []string{"github", "bing", "twitter", "redshift"} {
		segs, err := d.For(name, false)
		if err != nil || len(segs) == 0 {
			t.Errorf("For(%s): %v", name, err)
		}
	}
	cond, err := d.For("redshift", true)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := d.For("redshift", false)
	var cb, fb int64
	for i := range cond {
		cb += cond[i].Bytes()
		fb += full[i].Bytes()
	}
	if cb >= fb {
		t.Error("condensed variant not smaller")
	}
	if _, err := d.For("nope", false); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestAblationPredWindow(t *testing.T) {
	tb, err := AblationPredWindow()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != maxPredWindow {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// w=1 must stay at ≤2 live paths; larger windows grow toward 2^w.
	if v := numCell(t, tb, "1", 1); v > 2 {
		t.Errorf("w=1 max live paths %v, want ≤ 2", v)
	}
	if v := numCell(t, tb, "3", 1); v < 5 {
		t.Errorf("w=3 max live paths %v, want ≥ 5 (2^3 bound)", v)
	}
	// w=4 exceeds the cap of 8 at chunk starts: restarts expected.
	if v := numCell(t, tb, "4", 2); v == 0 {
		t.Errorf("w=4 restarts = %v, want > 0", v)
	}
}

func TestBarChartRender(t *testing.T) {
	c := &BarChart{
		Title: "demo",
		Unit:  "bytes",
		Log:   true,
		Groups: []BarGroup{
			{Label: "Q1", Bars: []Bar{{Label: "A", Value: 1e9}, {Label: "B", Value: 1e3}}},
			{Label: "Q2", Bars: []Bar{{Label: "A", Value: 5e6}, {Label: "B", Value: 0}}},
		},
	}
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "Q1", "Q2", "#", "log10", "953.67 MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The 1GB bar must be visibly longer than the 1KB bar.
	lines := strings.Split(out, "\n")
	countHash := func(s string) int { return strings.Count(s, "#") }
	if countHash(lines[1]) <= countHash(lines[2]) {
		t.Errorf("log scaling wrong:\n%s", out)
	}

	// Linear scale and empty chart don't panic.
	lin := &BarChart{Title: "lin", Unit: "seconds",
		Groups: []BarGroup{{Label: "x", Bars: []Bar{{Label: "a", Value: 90}}}}}
	sb.Reset()
	lin.Render(&sb)
	if !strings.Contains(sb.String(), "1.5 min") {
		t.Errorf("linear chart: %s", sb.String())
	}
	empty := &BarChart{Title: "none", Unit: "u"}
	sb.Reset()
	empty.Render(&sb)
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty chart: %s", sb.String())
	}
}
