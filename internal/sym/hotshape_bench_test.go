package sym

import "testing"

// Benchmarks of the engine on the query shapes the symexec experiment
// gates on: G1 (a lone SymBool that stays symbolic on the hot event) and
// R1 (a lone SymInt accumulator). These isolate the per-record engine
// cost from the parse cost symExecChunk measures around them.

type g1Shape struct {
	OnlyPush SymBool
}

func (s *g1Shape) Fields() []Value { return []Value{&s.OnlyPush} }

func newG1Shape() *g1Shape { return &g1Shape{OnlyPush: NewSymBool(true)} }

func g1ShapeUpdate(_ *Ctx, s *g1Shape, op int64) {
	if op != 0 {
		s.OnlyPush.Set(false)
	}
}

type r1Shape struct {
	Count SymInt
}

func (s *r1Shape) Fields() []Value { return []Value{&s.Count} }

func newR1Shape() *r1Shape { return &r1Shape{Count: NewSymInt(0)} }

func r1ShapeUpdate(_ *Ctx, s *r1Shape, _ struct{}) { s.Count.Inc() }

func BenchmarkHotShapeG1(b *testing.B) {
	// All-push stream: the state stays symbolic and the update is a no-op,
	// the common case for G1's dominant groups.
	b.Run("seed", func(b *testing.B) {
		x := NewSeedExecutor(newG1Shape, g1ShapeUpdate, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Feed(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		x := NewExecutor(newG1Shape, g1ShapeUpdate, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Feed(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHotShapeR1(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		x := NewSeedExecutor(newR1Shape, r1ShapeUpdate, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Feed(struct{}{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		x := NewExecutor(newR1Shape, r1ShapeUpdate, DefaultOptions())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Feed(struct{}{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
