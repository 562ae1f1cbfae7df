package sym

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property tests (testing/quick) for the decision procedures and the
// summary algebra. These complement the randomized oracle tests with
// shrunk, generator-driven coverage of the canonical forms.

// smallIvl generates non-degenerate intervals within a small range so
// brute-force enumeration is feasible.
type smallIvl struct {
	Lo, Hi int64
}

func (smallIvl) Generate(r *rand.Rand, _ int) reflect.Value {
	lo := int64(r.Intn(41) - 20)
	hi := lo + int64(r.Intn(20))
	return reflect.ValueOf(smallIvl{lo, hi})
}

func TestQuickUnionIvlSound(t *testing.T) {
	f := func(a, b smallIvl) bool {
		u, ok := unionIvl(ivl{a.Lo, a.Hi}, ivl{b.Lo, b.Hi})
		inA := func(x int64) bool { return a.Lo <= x && x <= a.Hi }
		inB := func(x int64) bool { return b.Lo <= x && x <= b.Hi }
		if !ok {
			// Union refused: there must be a gap between the intervals.
			for x := int64(-25); x <= 25; x++ {
				if inA(x) || inB(x) {
					continue
				}
				// x is outside both; refusal is justified only if some
				// such x lies strictly between them.
				if x > min64(a.Lo, b.Lo) && x < max64(a.Hi, b.Hi) {
					return true
				}
			}
			return false
		}
		// Union accepted: membership must match exactly.
		for x := int64(-25); x <= 25; x++ {
			if u.contains(x) != (inA(x) || inB(x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// affine generates small affine transfers with nonzero slope.
type affine struct {
	A, B int64
}

func (affine) Generate(r *rand.Rand, _ int) reflect.Value {
	a := int64(r.Intn(9) - 4)
	if a == 0 {
		a = 1
	}
	return reflect.ValueOf(affine{a, int64(r.Intn(21) - 10)})
}

func TestQuickPreimageAffineExact(t *testing.T) {
	f := func(tf affine, c smallIvl) bool {
		pre := preimageAffine(tf.A, tf.B, c.Lo, c.Hi)
		for x := int64(-60); x <= 60; x++ {
			y := tf.A*x + tf.B
			want := c.Lo <= y && y <= c.Hi
			if pre.contains(x) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSplitLtExact checks the Lt decision procedure against brute
// force: the true/false intervals partition the current constraint and
// classify every point correctly.
func TestQuickSplitLtExact(t *testing.T) {
	f := func(tf affine, cur smallIvl, c int8) bool {
		v := SymInt{id: 0, a: tf.A, b: tf.B, lb: cur.Lo, ub: cur.Hi}
		tIv, fIv := v.splitLt(int64(c))
		for x := cur.Lo; x <= cur.Hi; x++ {
			want := tf.A*x+tf.B < int64(c)
			inT := tIv.contains(x)
			inF := fIv.contains(x)
			if inT == inF { // must be in exactly one
				return false
			}
			if inT != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnumOpsOracle runs random Eq/Ne/In/Set sequences on a SymEnum
// summary and validates every resulting path against a concrete oracle.
func TestQuickEnumOpsOracle(t *testing.T) {
	type op struct {
		kind byte // 0 eq+set, 1 ne+set, 2 in+set
		c    int64
		set  int64
	}
	const domain = 6
	run := func(ops []op) bool {
		newState := newEnumState(domain, 0)
		x := NewExecutor(newState, func(ctx *Ctx, s *enumState, _ struct{}) {
			for _, o := range ops {
				switch o.kind % 3 {
				case 0:
					if s.M.Eq(ctx, o.c) {
						s.M.Set(o.set)
					}
				case 1:
					if s.M.Ne(ctx, o.c) {
						s.M.Set(o.set)
					}
				case 2:
					if s.M.In(ctx, o.c, (o.c+1)%domain) {
						s.M.Set(o.set)
					}
				}
			}
		}, Options{MaxLivePaths: 1 << 16, MaxRunsPerRecord: 1 << 16})
		if err := x.Feed(struct{}{}); err != nil {
			return false
		}
		sums, err := x.Finish()
		if err != nil {
			return false
		}
		concrete := func(v int64) int64 {
			for _, o := range ops {
				switch o.kind % 3 {
				case 0:
					if v == o.c {
						v = o.set
					}
				case 1:
					if v != o.c {
						v = o.set
					}
				case 2:
					if v == o.c || v == (o.c+1)%domain {
						v = o.set
					}
				}
			}
			return v
		}
		for init := int64(0); init < domain; init++ {
			got, err := sums[0].ApplyStrict(&enumState{M: NewSymEnum(domain, init)})
			if err != nil {
				return false
			}
			if got.M.Get() != concrete(init) {
				return false
			}
		}
		return true
	}
	f := func(raw []struct {
		Kind byte
		C    uint8
		Set  uint8
	}) bool {
		if len(raw) > 6 {
			raw = raw[:6]
		}
		ops := make([]op, len(raw))
		for i, r := range raw {
			ops[i] = op{kind: r.Kind, c: int64(r.C % domain), set: int64(r.Set % domain)}
		}
		return run(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComposeEqualsApply: for random Max-style summaries A, B and
// random concrete starts c, (B∘A)(c) == B(A(c)) — composition is exact.
func TestQuickComposeEqualsApply(t *testing.T) {
	mk := func(seed int64, n int) *Summary[*intState] {
		r := rand.New(rand.NewSource(seed))
		x := NewExecutor(newIntState(0), maxUpdate, DefaultOptions())
		for i := 0; i < n; i++ {
			if err := x.Feed(int64(r.Intn(100))); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := x.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return sums[0]
	}
	f := func(seedA, seedB int64, nA, nB uint8, start int16) bool {
		a := mk(seedA, 1+int(nA%20))
		b := mk(seedB, 1+int(nB%20))
		ab, err := a.ComposeWith(b)
		if err != nil {
			return false
		}
		c := &intState{V: NewSymInt(int64(start))}
		mid, err := a.ApplyStrict(c)
		if err != nil {
			return false
		}
		direct, err := b.ApplyStrict(mid)
		if err != nil {
			return false
		}
		viaCompose, err := ab.ApplyStrict(c)
		if err != nil {
			return false
		}
		return direct.V.Get() == viaCompose.V.Get()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSummaryDisjointCover: random session-UDA summaries remain
// valid partitions over random probes of the full state space.
func TestQuickSummaryDisjointCover(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := NewExecutor(newPredState, sessionUpdate, DefaultOptions())
	for i := 0; i < 40; i++ {
		if err := x.Feed(int64(r.Intn(300))); err != nil {
			t.Fatal(err)
		}
	}
	sums, err := x.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := sums[0]
	f := func(prev int16, count int16) bool {
		c := newPredState()
		c.Prev.SetValue(int64(prev))
		c.Count.Set(int64(count))
		n := 0
		for _, p := range s.Paths() {
			if admitsFields(p.Fields(), c.Fields()) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
