package sym

import (
	"math"
	"testing"

	"repro/internal/wire"
)

// Micro-benchmarks of the engine's hot paths: the per-record costs the
// paper's §6.2 multi-core evaluation is made of.

func BenchmarkSymIntLtConcrete(b *testing.B) {
	v := NewSymInt(7)
	var ctx Ctx
	for i := 0; i < b.N; i++ {
		_ = v.Lt(&ctx, int64(i&1023))
	}
}

func BenchmarkSymIntLtSymbolicForced(b *testing.B) {
	// Constraint already implies the outcome: decision without forking.
	var v SymInt
	v.ResetSymbolic(0)
	var ctx Ctx
	ctx.choices = []choice{{0, 2}}
	v.Lt(&ctx, 100) // narrow to x ≤ 99
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Lt(&ctx, 200) // always true under x ≤ 99
	}
}

func BenchmarkSymEnumEqConcrete(b *testing.B) {
	v := NewSymEnum(16, 3)
	var ctx Ctx
	for i := 0; i < b.N; i++ {
		_ = v.Eq(&ctx, int64(i&15))
	}
}

func BenchmarkSymPredEvalConcrete(b *testing.B) {
	p := NewSymPred(withinTen, Int64Codec(), 5)
	var ctx Ctx
	for i := 0; i < b.N; i++ {
		_ = p.EvalPred(&ctx, int64(i&63))
	}
}

func BenchmarkEngineFeedMaxSymbolic(b *testing.B) {
	x := NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Feed(int64(i % 512)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFeedMaxConcrete(b *testing.B) {
	x := NewConcreteExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Feed(int64(i % 512)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFeedFunnelSymbolic(b *testing.B) {
	// The Figure 1 UDA: three fields, bool+int+vector.
	x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
	items := []string{"a", "b"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := funnelEvent{kind: i & 3, item: items[i&1]}
		if err := x.Feed(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFeedSessionPred(b *testing.B) {
	// The §4.4 windowed-dependence UDA (SymPred, two live paths).
	x := NewExecutor(newPredState, sessionUpdate, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Feed(int64(i * 3 % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSymExec is the symexec hot-loop benchmark the CI smoke
// tracks: the per-record cost of the seed engine vs the compiled-schema
// engine on the max UDA over a skewed event stream.
func BenchmarkSymExec(b *testing.B) {
	feedLoop := func(b *testing.B, x interface {
		Feed(int64) error
	}) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Feed(int64(i % 512)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seed", func(b *testing.B) {
		feedLoop(b, NewSeedExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions()))
	})
	b.Run("fast", func(b *testing.B) {
		feedLoop(b, NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions()))
	})
}

func BenchmarkSummaryEncode(b *testing.B) {
	x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
	for i := 0; i < 200; i++ {
		if err := x.Feed(funnelEvent{kind: i & 3, item: "t"}); err != nil {
			b.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		b.Fatal(err)
	}
	e := wire.NewEncoder(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		sums[0].Encode(e)
	}
	b.SetBytes(int64(e.Len()))
}

func BenchmarkSummaryDecode(b *testing.B) {
	x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
	for i := 0; i < 200; i++ {
		if err := x.Feed(funnelEvent{kind: i & 3, item: "t"}); err != nil {
			b.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		b.Fatal(err)
	}
	e := wire.NewEncoder(256)
	sums[0].Encode(e)
	raw := e.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSummary(newFunnelState, wire.NewDecoder(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryApply(b *testing.B) {
	x := NewExecutor(newFunnelState, funnelUpdate, DefaultOptions())
	for i := 0; i < 200; i++ {
		if err := x.Feed(funnelEvent{kind: i & 3, item: "t"}); err != nil {
			b.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		b.Fatal(err)
	}
	init := newFunnelState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sums[0].Apply(init); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryComposeWith(b *testing.B) {
	mk := func(lo int64) *Summary[*intState] {
		x := NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
		for i := int64(0); i < 100; i++ {
			if err := x.Feed(lo + i%37); err != nil {
				b.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			b.Fatal(err)
		}
		return sums[0]
	}
	s1, s2 := mk(10), mk(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s1.ComposeWith(s2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComposeTree measures the balanced pairwise tree reduction the
// reducers run over a key's mapper summaries (ComposeAll, the
// non-consuming sequential variant — the parallel variant's per-level
// goroutine cost is scheduling, not composition, and would only add
// noise to the smoke check).
func BenchmarkComposeTree(b *testing.B) {
	mk := func(lo int64) *Summary[*intState] {
		x := NewExecutor(newIntState(math.MinInt64), maxUpdate, DefaultOptions())
		for i := int64(0); i < 100; i++ {
			if err := x.Feed(lo + i%37); err != nil {
				b.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			b.Fatal(err)
		}
		return sums[0]
	}
	sums := make([]*Summary[*intState], 64)
	for i := range sums {
		sums[i] = mk(int64(i * 3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComposeAll(sums); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergeAll(b *testing.B) {
	// Build eight paths with identical transfers and adjacent
	// constraints, the merge-friendly worst case.
	mkPaths := func() []*intState {
		var paths []*intState
		for i := 0; i < 8; i++ {
			s := newIntState(0)()
			s.V.Set(5)
			s.V.lb, s.V.ub = int64(i*10), int64(i*10+9)
			paths = append(paths, s)
		}
		return paths
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		paths := mkPaths()
		b.StartTimer()
		mergeAll(paths)
	}
}
