package queries

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/fuzzseed"
)

var updateFuzzSeeds = flag.Bool("update-fuzz-seeds", false,
	"regenerate testdata/fuzz-seeds/datetimes")

// agreesWithTimeParse is parseRedshiftTime's whole contract: the same
// accept/reject decision as the standard library under redshiftLayout,
// and the same Unix seconds when both accept.
func agreesWithTimeParse(t testing.TB, in string) {
	t.Helper()
	got, ok := parseRedshiftTime([]byte(in))
	ref, err := time.Parse(redshiftLayout, in)
	switch {
	case ok != (err == nil):
		t.Errorf("%q: parseRedshiftTime accepts=%v, time.Parse error=%v", in, ok, err)
	case ok && got != ref.Unix():
		t.Errorf("%q: parsed to %d, time.Parse to %d", in, got, ref.Unix())
	}
}

// datetimeEdgeCases are inputs on and around every boundary the fixed
// parser draws: calendar range, field range, separators and length.
// Several are accepted by time.Parse though they do not look like the
// layout (a one-digit hour, fractional seconds), which is why the
// parser defers to it and does not reject on its own.
var datetimeEdgeCases = []string{
	"2015-04-01 00:00:00", "2015-12-31 23:59:59", "1970-01-01 00:00:00", "1969-12-31 23:59:59",
	"0000-01-01 00:00:00", "0000-02-29 12:00:00", "0000-03-01 00:00:00", "9999-12-31 23:59:59",
	"2000-02-29 00:00:00", "1900-02-29 00:00:00", "2100-02-29 00:00:00", "2024-02-29 23:59:59",
	"2023-02-29 00:00:00", "2015-02-30 00:00:00", "2015-04-31 00:00:00", "2015-06-31 00:00:00",
	"2015-00-10 00:00:00", "2015-13-01 00:00:00", "2015-01-00 00:00:00", "2015-01-32 00:00:00",
	"2015-04-01 24:00:00", "2015-04-01 23:60:00", "2015-04-01 23:59:60", "2015-04-01 23:59:99",
	"2015-04-01 5:04:05", "2015-04-01 15:04:05.5", "2015-04-01 15:04:05.123456789", "2015-04-01 15:04:05,5",
	"2015-04-01T00:00:00", "2015/04/01 00:00:00", "2015-04-01 00.00.00", "2015-04-01  00:00:00",
	"2015-4-1 00:00:00", "15-04-01 00:00:00", "02015-04-01 00:00:00", "2015-04-01 00:00",
	"2015-04-01 00:00:0", "2015-04-01 00:00:000", " 2015-04-01 00:00:00", "2015-04-01 00:00:00 ",
	"2015-04-01 00:00:00Z", "2015-04-01", "", "x", "\t", "-015-04-01 00:00:00", "+015-04-01 00:00:00",
	"2015-0a-01 00:00:00", "2015-04-01 0x:00:00", "２０１５-04-01 00:00:00", "2015-04-01 00:00:0\x00",
}

func TestParseRedshiftTimeMatchesTimeParse(t *testing.T) {
	for _, in := range datetimeEdgeCases {
		agreesWithTimeParse(t, in)
	}
	// The generator's range and well past it, on a stride coprime to
	// every field's period so all fields cycle; plus each day of two
	// leap cycles around the century rules.
	base := time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 200000; i++ {
		agreesWithTimeParse(t, base.Add(time.Duration(i)*7919*time.Second).Format(redshiftLayout))
	}
	for _, from := range []int{-1, 1896, 1996, 2096, 9992} {
		day := time.Date(from, 1, 1, 12, 30, 15, 0, time.UTC)
		for i := 0; i < 8*366 && day.Year() <= 9999; i++ {
			agreesWithTimeParse(t, day.Format(redshiftLayout))
			day = day.AddDate(0, 0, 1)
		}
	}
	// Every day-of-month the digits can spell, valid or not.
	for _, y := range []int{1900, 2000, 2015, 2016} {
		for mo := 0; mo <= 13; mo++ {
			for d := 0; d <= 32; d++ {
				agreesWithTimeParse(t, fmt.Sprintf("%04d-%02d-%02d 06:07:08", y, mo, d))
			}
		}
	}
}

// datetimeSeedCorpus is the committed datetimes/ corpus: the edge cases
// above, so the boundaries found once seed every future fuzz run.
func datetimeSeedCorpus() []fuzzseed.Seed {
	seeds := make([]fuzzseed.Seed, len(datetimeEdgeCases))
	for i, in := range datetimeEdgeCases {
		seeds[i] = fuzzseed.Seed{Name: fmt.Sprintf("case-%02d.txt", i), Data: []byte(in)}
	}
	return seeds
}

// TestUpdateFuzzSeeds regenerates testdata/fuzz-seeds/datetimes when
// run with -update-fuzz-seeds; otherwise it checks the committed corpus
// still holds every edge case.
func TestUpdateFuzzSeeds(t *testing.T) {
	corpus := datetimeSeedCorpus()
	if *updateFuzzSeeds {
		if err := fuzzseed.Update("datetimes", corpus); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := fuzzseed.Load("datetimes")
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range committed {
		have[string(s.Data)] = true
	}
	for _, s := range corpus {
		if !have[string(s.Data)] {
			t.Errorf("%q is not in the committed corpus (regenerate with -update-fuzz-seeds)", s.Data)
		}
	}
}

// FuzzParseRedshiftTime checks the differential contract on arbitrary
// bytes; plain `go test` runs it over the committed corpus.
func FuzzParseRedshiftTime(f *testing.F) {
	seeds, err := fuzzseed.Load("datetimes")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range seeds {
		f.Add(s.Data)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		agreesWithTimeParse(t, string(in))
	})
}
