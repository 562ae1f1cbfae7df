package sym

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

// refIntVector is the reference model of SymIntVector: the layout it
// had before its elements were packed, one 32-byte intElem per element.
// It defines the semantics and the wire form the packed vector must
// keep (FuzzSymIntVector runs both on the same operations).
type refIntVector struct {
	elems []intElem
}

// intElem is one element of a refIntVector: either a concrete int64, or
// the affine expression a·x(field)+b over another field's symbolic input.
type intElem struct {
	sym   bool
	field int
	a, b  int64 // concrete value in b when !sym
}

func (e intElem) String() string {
	if !e.sym {
		return fmt.Sprintf("%d", e.b)
	}
	return fmt.Sprintf("%d·x%d%+d", e.a, e.field, e.b)
}

// intElems reads v one element at a time, as the model stores it.
func intElems(v *SymIntVector) []intElem {
	out := make([]intElem, len(v.vals))
	for i, b := range v.vals {
		out[i] = intElem{b: b}
	}
	for _, s := range v.slots {
		out[s.at] = intElem{sym: true, field: s.field, a: s.a, b: v.vals[s.at]}
	}
	return out
}

func (v *refIntVector) Push(val int64) { v.push(intElem{b: val}) }

func (v *refIntVector) PushInt(s *SymInt) {
	if s.bound {
		v.push(intElem{b: s.b})
		return
	}
	v.push(intElem{sym: true, field: s.id, a: s.a, b: s.b})
}

func (v *refIntVector) PushEnum(s *SymEnum) {
	if s.bound {
		v.push(intElem{b: s.c})
		return
	}
	v.push(intElem{sym: true, field: s.id, a: 1, b: 0})
}

func (v *refIntVector) push(e intElem) { v.elems = append(v.elems, e) }

func (v *refIntVector) CopyFrom(src *refIntVector) {
	v.elems = src.elems[:len(src.elems):len(src.elems)]
}

func (v *refIntVector) IsConcrete() bool {
	for _, e := range v.elems {
		if e.sym {
			return false
		}
	}
	return true
}

func (v *refIntVector) SameTransfer(o *refIntVector) bool { return slices.Equal(v.elems, o.elems) }

func (v *refIntVector) Concretize(p *refIntVector, env *Env) {
	out := make([]intElem, 0, len(p.elems)+len(v.elems))
	out = append(out, p.elems...)
	for _, e := range v.elems {
		if e.sym {
			x := env.Int(e.field)
			e = intElem{b: addChecked(mulChecked(e.a, x), e.b)}
		}
		out = append(out, e)
	}
	v.elems = out
}

func (v *refIntVector) ComposeAfter(p *refIntVector, senv *SymEnv) bool {
	out := make([]intElem, 0, len(p.elems)+len(v.elems))
	out = append(out, p.elems...)
	for _, e := range v.elems {
		if e.sym {
			t := senv.lookup(e.field)
			if t.bound {
				e = intElem{b: addChecked(mulChecked(e.a, t.b), e.b)}
			} else {
				// a·(ta·x+tb)+b = (a·ta)·x + (a·tb+b)
				e = intElem{
					sym:   true,
					field: e.field,
					a:     mulChecked(e.a, t.a),
					b:     addChecked(mulChecked(e.a, t.b), e.b),
				}
			}
		}
		out = append(out, e)
	}
	v.elems = out
	return true
}

func (v *refIntVector) Encode(e *wire.Encoder) {
	e.Uvarint(uint64(len(v.elems)))
	for _, el := range v.elems {
		e.Bool(el.sym)
		e.Varint(el.b)
		if el.sym {
			e.Uvarint(uint64(el.field))
			e.Varint(el.a)
		}
	}
}

func (v *refIntVector) Decode(d *wire.Decoder) error {
	n := d.Length(d.Remaining())
	if err := d.Err(); err != nil {
		return err
	}
	v.elems = slices.Grow(v.elems[:0], n)[:n]
	for i := range v.elems {
		e := intElem{sym: d.Bool(), b: d.Varint()}
		if e.sym {
			e.field = d.Length(maxFieldID)
			e.a = d.Varint()
		}
		v.elems[i] = e
	}
	return d.Err()
}

func (v *refIntVector) String() string {
	parts := make([]string, 0, len(v.elems))
	for _, e := range v.elems {
		parts = append(parts, e.String())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// The vector operations FuzzSymIntVector decodes, one byte each,
// followed by the holder it acts on, a second holder, and its operands.
const (
	vecPush       = iota // Push(num)
	vecIntBound          // PushInt of a bound SymInt: num
	vecIntSym            // PushInt of a symbolic SymInt: field, a, b
	vecEnumBound         // PushEnum of a bound SymEnum: value byte
	vecEnumSym           // PushEnum of a symbolic SymEnum: field
	vecFork              // CopyFrom the second holder
	vecConcretize        // Concretize after the second holder: an Env of 4 nums
	vecCompose           // ComposeAfter the second holder: a SymEnv of 4 entries
	vecRoundTrip         // Encode, then Decode into the warm receiver
	vecDecodeRaw         // Decode the next n bytes of input into the warm receiver
	vecOps
)

const (
	vecHolders = 3
	vecFields  = 4
	vecMaxLen  = 128 // a concatenation that would pass it is skipped
	vecSteps   = 256 // the operations one input runs at most
)

// vecBigs are the operands a num byte of 0xf0 and above picks: the
// edges of the checked arithmetic.
var vecBigs = [16]int64{math.MaxInt64, math.MinInt64, math.MaxInt64 / 2, math.MinInt64 / 2,
	1 << 32, -1 << 32, 1 << 62, -1 << 62, 3037000500, -3037000500, 1 << 20, -1 << 20,
	1000000007, -1, 0, 1}

// vecInput reads fuzz bytes as operands; past the end it reads zeros.
type vecInput struct {
	data []byte
	off  int
}

func (in *vecInput) byte() byte {
	if in.off >= len(in.data) {
		return 0
	}
	in.off++
	return in.data[in.off-1]
}

func (in *vecInput) num() int64 {
	if b := in.byte(); b < 0xf0 {
		return int64(b) - 0x40
	} else {
		return vecBigs[b-0xf0]
	}
}

// coef is a symbolic coefficient: never 0, as a SymInt's a never is.
func (in *vecInput) coef() int64 {
	if a := in.num(); a != 0 {
		return a
	}
	return 1
}

func (in *vecInput) field() int { return int(in.byte() % vecFields) }

// aborted runs f and returns the error of the failure it aborts with,
// if any.
func aborted(f func()) (err error) {
	defer catchFailure(&err)
	f()
	return nil
}

// FuzzSymIntVector runs a fuzzed sequence of vector operations on
// SymIntVector and on refIntVector, the element-per-slot layout it
// replaced: after every step each holder must read the same elements,
// encode to the same bytes, agree on IsConcrete and SameTransfer, and an
// operation must abort on one exactly when it aborts on the other.
func FuzzSymIntVector(f *testing.F) {
	seeds, err := fuzzseed.Load("vectors")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Fuzz(checkVectorOps)
}

func checkVectorOps(t *testing.T, data []byte) {
	var vs [vecHolders]SymIntVector
	var refs [vecHolders]refIntVector
	// The warm receiver of every Decode: nothing else shares its storage.
	var recv SymIntVector
	var recvRef refIntVector
	in := &vecInput{data: data}
	for step := 0; in.off < len(data) && step < vecSteps; step++ {
		op, i, j := in.byte()%vecOps, int(in.byte()%vecHolders), int(in.byte()%vecHolders)
		v, r := &vs[i], &refs[i]
		fits := len(v.vals)+len(vs[j].vals) <= vecMaxLen
		var gotErr, wantErr error
		switch op {
		case vecPush:
			x := in.num()
			v.Push(x)
			r.Push(x)
		case vecIntBound, vecIntSym:
			s := NewSymInt(0)
			if op == vecIntSym {
				s.ResetSymbolic(in.field())
				s.a, s.b = in.coef(), in.num()
			} else {
				s.Set(in.num())
			}
			v.PushInt(&s)
			r.PushInt(&s)
		case vecEnumBound, vecEnumSym:
			s := NewSymEnum(maxEnumDomain, 0)
			if op == vecEnumSym {
				s.ResetSymbolic(in.field())
			} else {
				s.Set(int64(in.byte() % maxEnumDomain))
			}
			v.PushEnum(&s)
			r.PushEnum(&s)
		case vecFork:
			v.CopyFrom(&vs[j])
			r.CopyFrom(&refs[j])
		case vecConcretize:
			env := &Env{ints: make([]int64, vecFields), ok: make([]bool, vecFields)}
			for f := range env.ints {
				env.ints[f], env.ok[f] = in.num(), true
			}
			if fits {
				gotErr = aborted(func() { v.Concretize(&vs[j], env) })
				wantErr = aborted(func() { r.Concretize(&refs[j], env) })
			}
		case vecCompose:
			senv := &SymEnv{entries: make([]symEnvEntry, vecFields)}
			for f := range senv.entries {
				flags := in.byte()
				senv.entries[f] = symEnvEntry{ok: flags&2 == 0, bound: flags&1 == 1, a: in.coef(), b: in.num()}
			}
			if fits {
				gotErr = aborted(func() { v.ComposeAfter(&vs[j], senv) })
				wantErr = aborted(func() { r.ComposeAfter(&refs[j], senv) })
			}
		case vecRoundTrip, vecDecodeRaw:
			var b []byte
			if op == vecRoundTrip {
				var e wire.Encoder
				v.Encode(&e)
				b = e.Bytes()
			} else {
				n := int(in.byte())
				b = data[in.off:min(in.off+n, len(data))]
				in.off += len(b)
			}
			gotErr, wantErr = recv.Decode(wire.NewDecoder(b)), recvRef.Decode(wire.NewDecoder(b))
			if gotErr == nil && wantErr == nil {
				if !slices.Equal(intElems(&recv), recvRef.elems) {
					t.Fatalf("step %d: %x decodes to %v, the model to %v", step, b, &recv, &recvRef)
				}
				if op == vecRoundTrip && !slices.Equal(intElems(&recv), intElems(v)) {
					t.Fatalf("step %d: holder %d %v round-trips to %v", step, i, v, &recv)
				}
			}
		}
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("step %d op %d: vector fails with %v, the model with %v", step, op, gotErr, wantErr)
		}
		for h := range vs {
			checkVectorHolder(t, step, h, &vs[h], &refs[h], !(in.off < len(data) && step+1 < vecSteps))
			k := (h + 1) % vecHolders
			if got, want := vs[h].SameTransfer(&vs[k]), refs[h].SameTransfer(&refs[k]); got != want {
				t.Fatalf("step %d: holders %d and %d SameTransfer %v, the model %v", step, h, k, got, want)
			}
		}
	}
}

// checkVectorHolder holds one vector to its model: the same elements,
// concreteness and encoding and, after the last step, the same rendering
// and concrete contents.
func checkVectorHolder(t *testing.T, step, h int, v *SymIntVector, r *refIntVector, last bool) {
	t.Helper()
	if !slices.Equal(intElems(v), r.elems) || last && v.String() != r.String() {
		t.Fatalf("step %d: holder %d reads %v, the model %v", step, h, v, r)
	}
	if v.IsConcrete() != r.IsConcrete() {
		t.Fatalf("step %d: holder %d IsConcrete %v, the model %v", step, h, v.IsConcrete(), r.IsConcrete())
	}
	var got, want wire.Encoder
	v.Encode(&got)
	r.Encode(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("step %d: holder %d encodes %x, the model %x", step, h, got.Bytes(), want.Bytes())
	}
	if last && v.IsConcrete() {
		want := make([]int64, len(r.elems))
		for i, e := range r.elems {
			want[i] = e.b
		}
		if got := v.Elems(); !slices.Equal(got, want) {
			t.Fatalf("step %d: holder %d Elems %v, want %v", step, h, got, want)
		}
	}
}

// vectorSeedCorpus builds the committed vector corpus: concrete runs
// through every Decode, a symbolic head before concrete elements (R3's
// and B3's shape), forks that push symbolic elements on both sides,
// holders whose values agree but whose symbolic slots do not,
// composition chains over bound and unbound transfers, enums, the
// overflow edges, and raw bytes a Decode must reject — a flag of 2, a
// field past maxFieldID, a cut element.
func vectorSeedCorpus() []fuzzseed.Seed {
	ops := func(b ...byte) []byte { return b }
	return []fuzzseed.Seed{
		{Name: "concrete-roundtrips.bin", Data: ops(vecPush, 0, 0, 0x41, vecPush, 0, 0, 0x00, vecIntBound, 0, 0, 0xf0,
			vecRoundTrip, 0, 0, vecPush, 0, 0, 0xf1, vecRoundTrip, 0, 0, vecRoundTrip, 1, 0, vecRoundTrip, 0, 0)},
		{Name: "symbolic-head.bin", Data: ops(vecIntSym, 0, 0, 1, 0x41, 0x45, vecPush, 0, 0, 0x50, vecPush, 0, 0, 0x60,
			vecRoundTrip, 0, 0, vecPush, 1, 0, 0x42, vecConcretize, 0, 1, 0x40, 0x4a, 0x40, 0x40,
			vecRoundTrip, 0, 0, vecIntSym, 2, 0, 0x02, 3, 0x40)},
		{Name: "forks.bin", Data: ops(vecPush, 0, 0, 0x41, vecIntSym, 0, 0, 1, 0x42, 0x43, vecFork, 1, 0, vecFork, 2, 0,
			vecIntSym, 1, 0, 2, 0x44, 0x45, vecPush, 0, 0, 0x46, vecEnumSym, 2, 0, 3, vecFork, 0, 1,
			vecIntSym, 0, 0, 3, 0x47, 0x48, vecPush, 1, 0, 0x49, vecFork, 1, 2, vecEnumSym, 1, 0, 0)},
		{Name: "compose-chain.bin", Data: ops(vecIntSym, 0, 0, 0, 0x42, 0x41, vecIntSym, 0, 0, 1, 0x43, 0x40,
			vecIntSym, 1, 0, 2, 0x41, 0x44, vecCompose, 0, 1, 0, 0x42, 0x43, 1, 0x41, 0x50, 0, 0x44, 0x40, 0, 0x41, 0x41,
			vecCompose, 0, 2, 1, 0x41, 0x45, 1, 0x41, 0x46, 1, 0x41, 0x47, 1, 0x41, 0x48, vecRoundTrip, 0, 0)},
		{Name: "enums.bin", Data: ops(vecEnumBound, 0, 0, 7, vecEnumSym, 0, 0, 2, vecEnumBound, 0, 0, 255,
			vecConcretize, 0, 1, 0x40, 0x40, 0x47, 0x40, vecEnumSym, 1, 0, 1, vecRoundTrip, 1, 0)},
		{Name: "overflow.bin", Data: ops(vecIntSym, 0, 0, 0, 0xf2, 0xf0, vecConcretize, 0, 1, 0xf0, 0x40, 0x40, 0x40,
			vecIntSym, 1, 0, 1, 0xf6, 0xf6, vecCompose, 1, 2, 0, 0xf0, 0xf0, 0, 0xf6, 0xf6, 0, 0xf0, 0xf1, 0, 0x41, 0x41,
			vecConcretize, 1, 2, 0x40, 0xf1, 0x40, 0x40, vecCompose, 1, 2, 2, 0x41, 0x41, 0, 0x41, 0x41, 2, 0x41, 0x41, 2, 0x41, 0x41)},
		{Name: "same-values-other-slots.bin", Data: ops(vecIntSym, 0, 0, 1, 0x42, 0x45, vecIntSym, 1, 0, 2, 0x42, 0x45,
			vecPush, 0, 0, 0x41, vecPush, 1, 0, 0x41, vecIntSym, 1, 0, 1, 0x42, 0x45, vecIntSym, 0, 0, 1, 0x42, 0x45,
			vecIntSym, 0, 0, 3, 0x43, 0x46, vecIntSym, 1, 0, 3, 0x44, 0x46)},
		{Name: "decode-raw.bin", Data: ops(vecDecodeRaw, 0, 0, 3, 2, 2, 5, vecDecodeRaw, 0, 0, 4, 1, 1, 0x80, 0x80,
			vecDecodeRaw, 0, 0, 6, 1, 1, 0x02, 0x80, 0x80, 0x08, vecDecodeRaw, 0, 0, 4, 2, 0, 1, 1, vecRoundTrip, 0, 0)},
	}
}

// TestUpdateVectorFuzzSeeds regenerates the committed vector corpus when
// run with -update-fuzz-seeds; otherwise it runs every seed through the
// fuzz body.
func TestUpdateVectorFuzzSeeds(t *testing.T) {
	corpus := vectorSeedCorpus()
	for _, s := range corpus {
		checkVectorOps(t, s.Data)
	}
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/vectors", len(corpus))
	}
	if err := fuzzseed.Update("vectors", corpus); err != nil {
		t.Fatal(err)
	}
}
