package data

import (
	"math/rand"

	"repro/internal/mapreduce"
)

// Bing query log (stand-in for the 300GB, 1.9-billion-query corpus).
// Schema, tab-separated:
//
//	ts  user  geo  ok  query
//
// ts is a Unix timestamp in seconds, ok ∈ {0,1} marks a successful query.
// The generator injects genuine global outages (gaps with no successful
// query anywhere, B1), regional outages (per-geo gaps, B2), and per-user
// session structure (B3's <2-minute sessions).

// BingConfig sizes the generated dataset.
type BingConfig struct {
	Records  int
	Users    int // B3's group count: very large (≈ records/queries-per-session)
	Geos     int // B2's group count: small (paper groups by geographic area)
	Segments int
	Filler   int // query-text bytes
	Seed     int64

	// Outages injects this many global outage gaps (> 2 minutes with no
	// successful query). Regional outages are injected per geo at twice
	// the rate.
	Outages int
}

// GenBing generates the dataset as ordered, timestamp-sorted segments.
func GenBing(cfg BingConfig) []*mapreduce.Segment {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Users <= 0 {
		cfg.Users = 1
	}
	if cfg.Geos <= 0 {
		cfg.Geos = 1
	}
	records := make([][]byte, 0, cfg.Records)
	var b lineBuilder
	ts := int64(1_420_000_000)
	// Pick the records after which a global outage gap is inserted.
	outageAt := make(map[int]bool, cfg.Outages)
	for len(outageAt) < cfg.Outages && cfg.Records > 10 {
		outageAt[1+r.Intn(cfg.Records-2)] = true
	}
	// Regional outages: per geo, suppress successes in time windows.
	type window struct {
		geo      int
		from, to int64
	}
	var regional []window
	horizon := ts + int64(cfg.Records)*2 // rough end time
	for g := 0; g < cfg.Geos; g++ {
		for k := 0; k < 2*cfg.Outages/cfg.Geos+1; k++ {
			from := ts + r.Int63n(horizon-ts)
			regional = append(regional, window{geo: g, from: from, to: from + 120 + r.Int63n(600)})
		}
	}
	pad := filler(r, cfg.Filler)
	for i := 0; i < cfg.Records; i++ {
		if outageAt[i] {
			ts += 121 + r.Int63n(600) // global gap: no queries at all
		} else {
			ts += int64(r.Intn(3)) // dense traffic otherwise
		}
		user := r.Intn(cfg.Users)
		geo := r.Intn(cfg.Geos)
		ok := int64(1)
		if r.Intn(20) == 0 {
			ok = 0 // sporadic failures
		}
		for _, w := range regional {
			if w.geo == geo && ts >= w.from && ts <= w.to {
				ok = 0
				break
			}
		}
		b.reset()
		b.intField(ts)
		b.field(keyName("u", user))
		b.field(keyName("g", geo))
		b.intField(ok)
		b.field(pad)
		records = append(records, b.bytes())
	}
	return segmented(records, cfg.Segments)
}
