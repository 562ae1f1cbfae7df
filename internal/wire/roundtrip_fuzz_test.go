package wire_test

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false,
	"regenerate testdata/fuzz-seeds/records from the current generators")

// recordSeedCorpus builds the committed record corpus: one hand-built op
// stream exercising every primitive with awkward values (max uvarint,
// negative varint, NaN float bits, empty and non-empty strings), plus
// real query-traffic records from the seeded corpora generators, whose
// delimiter-heavy layout steers the mutator toward realistic
// string/length patterns.
func recordSeedCorpus() []fuzzseed.Seed {
	opstream := []byte{
		0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // uvarint 2^64-1
		1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // varint -1
		2, 0x01, // bool true
		3, 0x7F, // raw byte
		4, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // uint64
		5, 0x7F, 0xF8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // float64 NaN payload
		6, 0x00, // empty string
		6, 0x04, 'k', 'e', 'y', '!', // string
		7, 0x03, 0x00, 0x01, 0x02, // bytes field
		9, 0x02, 0x03, 'k', 'e', 'y', 0x00, // string dict {"key", ""}
	}
	seeds := []fuzzseed.Seed{{Name: "opstream.bin", Data: opstream}}
	gh := data.GenGithub(data.GithubConfig{Records: 40, Repos: 6, Segments: 1, Seed: 7})
	bing := data.GenBing(data.BingConfig{Records: 40, Users: 8, Geos: 3, Segments: 1, Seed: 8, Outages: 2})
	for i, rec := range [][]byte{gh[0].Records[0], gh[0].Records[7], bing[0].Records[0], bing[0].Records[5]} {
		seeds = append(seeds, fuzzseed.Seed{
			Name: fmt.Sprintf("traffic-%d.bin", i),
			Data: append([]byte(nil), rec...),
		})
	}
	return seeds
}

// TestUpdateFuzzSeeds regenerates the committed record corpus when run
// with -update-fuzz-seeds.
func TestUpdateFuzzSeeds(t *testing.T) {
	corpus := recordSeedCorpus()
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/records", len(corpus))
	}
	if err := fuzzseed.Update("records", corpus); err != nil {
		t.Fatal(err)
	}
}

// FuzzWireRoundTrip checks the encoder/decoder pair property-style: the
// fuzz input is interpreted as an op stream — each op picks a primitive
// type and carries its value — which is encoded and then decoded under
// the identical schema. Every value must survive unchanged, the decoder
// must report no error, and no bytes may be left over. This is the
// complement of FuzzDecoder, which feeds the decoder garbage; here the
// stream is valid by construction, so any mismatch is an encoding bug.
//
// Seeds come from the committed corpus in testdata/fuzz-seeds/records
// (see recordSeedCorpus for its construction). Runs as part of
// `go test`; fuzz continuously with
// `go test -fuzz=FuzzWireRoundTrip ./internal/wire`.
func FuzzWireRoundTrip(f *testing.F) {
	seeds, err := fuzzseed.Load("records")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		type item struct {
			op   byte
			u    uint64 // uvarint / fixed uint64 / float64 bits
			i    int64
			b    bool
			by   byte
			s    string
			bs   []byte
			dict []string
		}
		pos := 0
		take := func(n int) []byte {
			if rem := len(in) - pos; n > rem {
				n = rem
			}
			b := in[pos : pos+n]
			pos += n
			return b
		}
		u64 := func() uint64 {
			var v uint64
			for _, b := range take(8) {
				v = v<<8 | uint64(b)
			}
			return v
		}

		// Op 8 is reserved (it was a compressed block, retired with the
		// flate segment form): it reads and writes nothing, so every
		// other op keeps its number and the committed seeds their meaning.
		var items []item
		e := wire.NewEncoder(0)
		for pos < len(in) && len(items) < 512 {
			it := item{op: in[pos] % 10}
			pos++
			switch it.op {
			case 0:
				it.u = u64()
				e.Uvarint(it.u)
			case 1:
				it.i = int64(u64())
				e.Varint(it.i)
			case 2:
				if b := take(1); len(b) > 0 {
					it.b = b[0]&1 == 1
				}
				e.Bool(it.b)
			case 3:
				if b := take(1); len(b) > 0 {
					it.by = b[0]
				}
				e.Byte(it.by)
			case 4:
				it.u = u64()
				e.Uint64(it.u)
			case 5:
				it.u = u64()
				e.Float64(math.Float64frombits(it.u))
			case 6:
				var n int
				if b := take(1); len(b) > 0 {
					n = int(b[0]) % 33
				}
				it.s = string(take(n))
				e.String(it.s)
			case 7:
				var n int
				if b := take(1); len(b) > 0 {
					n = int(b[0]) % 33
				}
				it.bs = append([]byte(nil), take(n)...)
				e.BytesField(it.bs)
			case 9:
				var n int
				if b := take(1); len(b) > 0 {
					n = int(b[0]) % 9
				}
				it.dict = make([]string, 0, n)
				for j := 0; j < n; j++ {
					var l int
					if b := take(1); len(b) > 0 {
						l = int(b[0]) % 17
					}
					it.dict = append(it.dict, string(take(l)))
				}
				e.StringDict(it.dict)
			}
			items = append(items, it)
		}

		d := wire.NewDecoder(e.Bytes())
		for idx, it := range items {
			switch it.op {
			case 0:
				if got := d.Uvarint(); got != it.u {
					t.Fatalf("op %d: Uvarint %d, want %d", idx, got, it.u)
				}
			case 1:
				if got := d.Varint(); got != it.i {
					t.Fatalf("op %d: Varint %d, want %d", idx, got, it.i)
				}
			case 2:
				if got := d.Bool(); got != it.b {
					t.Fatalf("op %d: Bool %v, want %v", idx, got, it.b)
				}
			case 3:
				if got := d.Byte(); got != it.by {
					t.Fatalf("op %d: Byte %#x, want %#x", idx, got, it.by)
				}
			case 4:
				if got := d.Uint64(); got != it.u {
					t.Fatalf("op %d: Uint64 %d, want %d", idx, got, it.u)
				}
			case 5:
				got := math.Float64bits(d.Float64())
				// NaN payloads compare by bits; everything else must be
				// bit-exact too, so one check covers both.
				if got != it.u && !(math.IsNaN(math.Float64frombits(got)) && math.IsNaN(math.Float64frombits(it.u))) {
					t.Fatalf("op %d: Float64 bits %#x, want %#x", idx, got, it.u)
				}
			case 6:
				if got := d.String(); got != it.s {
					t.Fatalf("op %d: String %q, want %q", idx, got, it.s)
				}
			case 7:
				if got := d.BytesField(); string(got) != string(it.bs) {
					t.Fatalf("op %d: BytesField %q, want %q", idx, got, it.bs)
				}
			case 9:
				got := d.StringDict(len(it.dict))
				if len(got) != len(it.dict) {
					t.Fatalf("op %d: StringDict %d entries, want %d", idx, len(got), len(it.dict))
				}
				for j := range got {
					if got[j] != it.dict[j] {
						t.Fatalf("op %d: StringDict[%d] %q, want %q", idx, j, got[j], it.dict[j])
					}
				}
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("decoder errored on a valid stream: %v", err)
		}
		if n := d.Remaining(); n != 0 {
			t.Fatalf("%d bytes left after decoding the full schema", n)
		}
	})
}
