package mapreduce

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/fuzzseed"
	"repro/internal/wire"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false,
	"regenerate testdata/fuzz-seeds/segments from the current encoder")

// segSeedCorpus builds the committed segment corpus: genuine encoder
// output plus one seed per corruption class the decoder must reject (the
// classes TestDecodeSegmentRejectsCorruption pins). Names are
// load-bearing: corrupt-* seeds are asserted rejected by
// TestFuzzSeedSegmentCorpus, valid-* asserted accepted.
//
// The seeds whose names contain "flate" were written by the retired
// DEFLATE segment form (flags 0x02), which no encoder here can write
// any more; they are carried over from the committed corpus byte for
// byte and stay as corrupt inputs.
func segSeedCorpus() ([]fuzzseed.Seed, error) {
	committed, err := fuzzseed.Load("segments")
	if err != nil {
		return nil, err
	}
	raw := encodeSegment(segSeedRecs())

	badFlags := append([]byte(nil), raw...)
	badFlags[0] = 0x7C

	// Out-of-range dictionary index: one record, empty dictionary.
	e := wire.NewEncoder(0)
	e.Uvarint(1)
	e.Uvarint(0)
	e.StringDict(nil)
	e.Varint(5)
	e.BytesField([]byte{})
	badDict := append([]byte{segRaw}, e.Bytes()...)

	seeds := []fuzzseed.Seed{
		{Name: "valid-raw.bin", Data: raw},
		{Name: "valid-empty-raw.bin", Data: encodeSegment(nil)},
		{Name: "corrupt-truncated-raw.bin", Data: raw[:len(raw)/2]},
		{Name: "corrupt-truncated-raw-tail.bin", Data: raw[:len(raw)-1]},
		{Name: "corrupt-flags.bin", Data: badFlags},
		{Name: "corrupt-dict-index.bin", Data: badDict},
		{Name: "corrupt-trailing.bin", Data: append(append([]byte(nil), raw...), 0xAA, 0xBB)},
	}
	for _, s := range committed {
		if strings.Contains(s.Name, "flate") {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

// TestUpdateFuzzSeeds regenerates the committed corpus when run with
// -update-fuzz-seeds; otherwise it only checks the generator still
// produces every corruption class.
func TestUpdateFuzzSeeds(t *testing.T) {
	corpus, err := segSeedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	if !*updateFuzzSeeds {
		t.Skipf("generator healthy (%d seeds); pass -update-fuzz-seeds to rewrite testdata/fuzz-seeds/segments", len(corpus))
	}
	if err := fuzzseed.Update("segments", corpus); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzSeedSegmentCorpus is the regression net over the committed
// corpus: every corrupt-* seed must be rejected by decodeSegment,
// leaving the table it was decoded onto as it was, and every valid-*
// seed accepted — independent of how the seed was built,
// so decoder regressions against historical corruptions surface even if
// the generator drifts.
func TestFuzzSeedSegmentCorpus(t *testing.T) {
	seeds, err := fuzzseed.Load("segments")
	if err != nil {
		t.Fatal(err)
	}
	var valid, corrupt int
	for _, s := range seeds {
		got, _, err := decodeOnto(t, s.Data)
		switch {
		case strings.HasPrefix(s.Name, "corrupt-"):
			corrupt++
			if err == nil {
				t.Errorf("%s: corrupt seed accepted (%d records)", s.Name, len(got))
			}
		case strings.HasPrefix(s.Name, "valid-"):
			valid++
			if err != nil {
				t.Errorf("%s: valid seed rejected: %v", s.Name, err)
			}
		default:
			t.Errorf("%s: seed name must start with valid- or corrupt-", s.Name)
		}
	}
	if valid < 2 || corrupt < 8 {
		t.Fatalf("corpus too small: %d valid / %d corrupt seeds", valid, corrupt)
	}
}
