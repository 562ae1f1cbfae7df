package data

import (
	"math/rand"
	"time"

	"repro/internal/mapreduce"
)

// RedShift ad-impression benchmark (stand-in for the 1.2TB, 4-month
// corpus). Two variants, mirroring the paper's EMR experiment (§6.3):
//
//   - complete: every record carries all fields —
//     datetime  advertiser  campaign  country  impression_id  url  ua  ip  price
//   - condensed: only the four columns the queries use —
//     datetime  advertiser  campaign  country
//
// The datetime is a wall-clock string ("2006-01-02 15:04:05"); R3 parses
// it with the standard library, faithfully reproducing the paper's
// observation that R3c is dominated by C-library datetime parsing.

// RedshiftCountries is the closed country domain (SymEnum-sized).
var RedshiftCountries = []string{
	"us", "uk", "de", "fr", "jp", "br", "in", "cn", "ru", "ca",
	"au", "mx", "es", "it", "nl", "se", "pl", "tr", "kr", "ar",
}

// NumRedshiftCampaigns bounds campaign IDs per advertiser (SymEnum
// domain for R4).
const NumRedshiftCampaigns = 12

// RedshiftConfig sizes the generated dataset.
type RedshiftConfig struct {
	Records     int
	Advertisers int // the paper's 10K groups, scaled
	Segments    int
	Condensed   bool // drop the scanned-and-discarded fields
	Filler      int  // extra payload bytes in the complete variant
	Seed        int64

	// DarkWindows injects, per advertiser, windows longer than one hour
	// with no impressions (R3's pattern).
	DarkWindows int
}

// GenRedshift generates the dataset as ordered, timestamp-sorted
// segments.
func GenRedshift(cfg RedshiftConfig) []*mapreduce.Segment {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Advertisers <= 0 {
		cfg.Advertisers = 1
	}
	// Per-advertiser behavior: most run a few campaigns in runs; some
	// operate in a single country (R2's pattern).
	singleCountry := make([]int, cfg.Advertisers) // -1: multi-country
	curCampaign := make([]int, cfg.Advertisers)
	for a := range singleCountry {
		if r.Intn(4) == 0 {
			singleCountry[a] = r.Intn(len(RedshiftCountries))
		} else {
			singleCountry[a] = -1
		}
		curCampaign[a] = r.Intn(NumRedshiftCampaigns)
	}
	// Dark windows per advertiser: stretches where its ads don't show.
	// Implemented by timestamp jumps for records of that advertiser.
	lastTs := make([]int64, cfg.Advertisers)
	darkLeft := make([]int, cfg.Advertisers)
	for a := range darkLeft {
		darkLeft[a] = cfg.DarkWindows
	}

	base := time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC).Unix()
	ts := base
	records := make([][]byte, 0, cfg.Records)
	var b lineBuilder
	pad := filler(r, 40+cfg.Filler)
	for i := 0; i < cfg.Records; i++ {
		ts += int64(r.Intn(3))
		a := r.Intn(cfg.Advertisers)
		// Inject an over-an-hour gap for this advertiser occasionally.
		if darkLeft[a] > 0 && lastTs[a] != 0 && r.Intn(1+cfg.Records/(cfg.Advertisers*cfg.DarkWindows+1)) == 0 {
			darkLeft[a]--
			// The gap appears as this advertiser simply not showing
			// between lastTs[a] and now; stretch it past an hour.
			if ts-lastTs[a] <= 3600 {
				jump := 3601 + r.Int63n(3600) - (ts - lastTs[a])
				ts += jump
			}
		}
		lastTs[a] = ts
		// Campaigns run in streaks (R4's pattern).
		if r.Intn(8) == 0 {
			curCampaign[a] = r.Intn(NumRedshiftCampaigns)
		}
		country := singleCountry[a]
		if country < 0 {
			country = r.Intn(len(RedshiftCountries))
		}
		b.reset()
		b.field(time.Unix(ts, 0).UTC().Format("2006-01-02 15:04:05"))
		b.field(keyName("a", a))
		b.field(keyName("c", curCampaign[a]))
		b.field(RedshiftCountries[country])
		if !cfg.Condensed {
			b.field(keyName("imp", i))
			b.field("http://example.com/" + pad[:20])
			b.field("Mozilla/5.0 " + pad[20:36])
			b.intField(int64(r.Intn(256)))
			b.intField(int64(r.Intn(1000)))
			if cfg.Filler > 0 {
				b.field(pad[40:])
			}
		}
		records = append(records, b.bytes())
	}
	return segmented(records, cfg.Segments)
}

// CountryIndex maps a country code to its enum value; -1 when unknown.
func CountryIndex(b []byte) int {
	for i, c := range RedshiftCountries {
		if string(b) == c {
			return i
		}
	}
	return -1
}

// CampaignIndex parses campaign keys of the form "c<N>"; -1 when
// malformed or out of domain.
func CampaignIndex(b []byte) int {
	if len(b) < 2 || b[0] != 'c' {
		return -1
	}
	v, ok := ParseInt(b[1:])
	if !ok || v < 0 || v >= NumRedshiftCampaigns {
		return -1
	}
	return int(v)
}
