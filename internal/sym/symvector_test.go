package sym

import (
	"encoding/hex"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/wire"
)

func TestSymVectorPushAndCopyIsolation(t *testing.T) {
	v := NewSymVector(StringCodec())
	v.Push("a")
	var c1, c2 SymVector[string]
	c1.CopyFrom(&v)
	c2.CopyFrom(&v)
	c1.Push("b")
	c2.Push("c")
	if got := c1.Elems(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("c1 = %v", got)
	}
	if got := c2.Elems(); len(got) != 2 || got[1] != "c" {
		t.Fatalf("c2 = %v", got)
	}
	if v.Len() != 1 {
		t.Fatal("base mutated")
	}
}

func TestSymVectorConcretizeConcatenates(t *testing.T) {
	prev := NewSymVector(StringCodec())
	prev.Push("p1")
	prev.Push("p2")
	local := NewSymVector(StringCodec())
	local.Push("l1")
	local.Concretize(&prev, nil)
	got := local.Elems()
	want := []string{"p1", "p2", "l1"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSymVectorSameTransfer(t *testing.T) {
	a := NewSymVector(StringCodec())
	b := NewSymVector(StringCodec())
	a.Push("x")
	b.Push("x")
	if !a.SameTransfer(&b) {
		t.Fatal("equal vectors differ")
	}
	b.Push("y")
	if a.SameTransfer(&b) {
		t.Fatal("unequal lengths compare equal")
	}
}

func TestSymVectorEncodeDecode(t *testing.T) {
	v := NewSymVector(StringCodec())
	v.Push("hello")
	v.Push("")
	v.Push("world")
	e := wire.NewEncoder(0)
	v.Encode(e)
	got := NewSymVector(StringCodec())
	if err := got.Decode(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Elems()[2] != "world" {
		t.Fatalf("decoded: %v", got.Elems())
	}
}

func TestSymIntVectorSymbolicElements(t *testing.T) {
	var count SymInt
	count.ResetSymbolic(1)
	count.Add(5) // x1 + 5, the paper's example

	var v SymIntVector
	v.PushInt(&count)
	v.Push(99)
	if v.IsConcrete() {
		t.Fatal("vector with symbolic element reports concrete")
	}

	// Concretize with x1 = 10: element becomes 15.
	env := &Env{ints: []int64{0, 10}, ok: []bool{true, true}}
	var prev SymIntVector
	prev.Push(-1)
	v.Concretize(&prev, env)
	got := v.Elems()
	want := []int64{-1, 15, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSymIntVectorElemsFailsOnSymbolic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected failure panic")
		}
	}()
	var count SymInt
	count.ResetSymbolic(0)
	var v SymIntVector
	v.PushInt(&count)
	v.Elems()
}

func TestSymIntVectorPushEnum(t *testing.T) {
	en := NewSymEnum(5, 2)
	en.ResetSymbolic(0)
	var v SymIntVector
	v.PushEnum(&en)
	en2 := NewSymEnum(5, 3)
	v.PushEnum(&en2) // bound: concrete 3

	env := &Env{ints: []int64{4}, ok: []bool{true}}
	var prev SymIntVector
	v.Concretize(&prev, env)
	got := v.Elems()
	if got[0] != 4 || got[1] != 3 {
		t.Fatalf("got %v, want [4 3]", got)
	}
}

func TestSymIntVectorComposeAfterRewrites(t *testing.T) {
	// Later path pushed 2·x0+1; earlier path's field 0 transfer is
	// 3·x0+4. Composed element must be 2·(3x+4)+1 = 6x+9.
	var later SymIntVector
	later.pushSym(0, 2, 1)
	senv := &SymEnv{entries: []symEnvEntry{{ok: true, bound: false, a: 3, b: 4}}}
	var prevVec SymIntVector
	prevVec.Push(7)
	if !later.ComposeAfter(&prevVec, senv) {
		t.Fatal("compose failed")
	}
	got := intElems(&later)
	if got[0] != (intElem{b: 7}) {
		t.Fatalf("prev element wrong: %+v", got[0])
	}
	e := got[1]
	if !e.sym || e.a != 6 || e.b != 9 || e.field != 0 {
		t.Fatalf("composed element: %+v", e)
	}

	// With a bound earlier transfer (x0 resolved to 5), 2·5+1 = 11.
	var later2 SymIntVector
	later2.pushSym(0, 2, 1)
	senv2 := &SymEnv{entries: []symEnvEntry{{ok: true, bound: true, b: 5}}}
	if !later2.ComposeAfter(&SymIntVector{}, senv2) {
		t.Fatal("compose failed")
	}
	if got := intElems(&later2); got[0] != (intElem{b: 11}) {
		t.Fatalf("resolved element: %+v", got[0])
	}
}

func TestSymIntVectorEncodeDecode(t *testing.T) {
	var v SymIntVector
	v.Push(-5)
	v.pushSym(2, -1, 100)
	e := wire.NewEncoder(0)
	v.Encode(e)
	var got SymIntVector
	if err := got.Decode(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !slices.Equal(intElems(&got), intElems(&v)) {
		t.Fatalf("decoded: %+v", intElems(&got))
	}
}

// TestSymIntVectorWireBytes pins SymIntVector's wire form to the bytes
// the element-per-slot layout wrote — Uvarint(len), then per element
// Bool(sym) Varint(b) and, when symbolic, Uvarint(field) Varint(a) — for
// an empty vector, a mixed one (negative, large, a symbolic SymInt and
// SymEnum among concrete elements) and a symbolic head before concrete
// elements; and Decode's rejections: a flag byte past 1, a field id past
// maxFieldID, and a vector cut anywhere.
func TestSymIntVectorWireBytes(t *testing.T) {
	var mixed SymIntVector
	mixed.Push(-1)
	mixed.Push(-300)
	mixed.Push(math.MaxInt64)
	mixed.Push(1 << 40)
	var c SymInt
	c.ResetSymbolic(1)
	c.Mul(-3)
	c.Add(7)
	mixed.PushInt(&c)
	en := NewSymEnum(5, 0)
	en.ResetSymbolic(2)
	mixed.PushEnum(&en)
	mixed.Push(math.MinInt64)
	var head SymIntVector
	var x SymInt
	x.ResetSymbolic(0)
	x.Add(5)
	head.PushInt(&x)
	head.Push(100)
	head.Push(200)
	head.Push(-7)

	var recv SymIntVector // warm across the cases
	for _, c := range []struct {
		v        *SymIntVector
		hex, str string
	}{
		{&SymIntVector{}, "00", "[]"},
		{&mixed, "07000100d70400feffffffffffffffff0100808080808040010e01050100020200ffffffffffffffffff01",
			"[-1 -300 9223372036854775807 1099511627776 -3·x1+7 1·x2+0 -9223372036854775808]"},
		{&head, "04010a000200c801009003000d", "[1·x0+5 100 200 -7]"},
	} {
		var e wire.Encoder
		c.v.Encode(&e)
		if got := hex.EncodeToString(e.Bytes()); got != c.hex || c.v.String() != c.str {
			t.Errorf("%v encodes %s, want %s (%s)", c.v, got, c.hex, c.str)
		}
		if err := recv.Decode(wire.NewDecoder(e.Bytes())); err != nil || !recv.SameTransfer(c.v) {
			t.Errorf("%s decodes to %v (%v), want %v", c.hex, &recv, err, c.v)
		}
		for n := range len(e.Bytes()) {
			if err := recv.Decode(wire.NewDecoder(e.Bytes()[:n])); err == nil {
				t.Errorf("%s cut to %d bytes decodes to %v", c.hex, n, &recv)
			}
		}
	}
	var badField wire.Encoder
	badField.Uvarint(1)
	badField.Bool(true)
	badField.Varint(0)
	badField.Uvarint(maxFieldID + 1)
	badField.Varint(1)
	for name, b := range map[string][]byte{
		"flag byte 2":           {0x01, 0x02, 0x00},
		"field past maxFieldID": badField.Bytes(),
	} {
		if err := recv.Decode(wire.NewDecoder(b)); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: Decode(%x) = %v, want a corrupt-stream error", name, b, err)
		}
	}
}
