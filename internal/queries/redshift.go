package queries

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/sym"
	"repro/internal/wire"
)

// RedShift ad-impression schema:
// datetime  advertiser  campaign  country  [extra fields in the complete
// variant] (data.GenRedshift). The same query code runs on both variants
// (R1–R4 on complete, R1c–R4c on condensed): only the input differs.

// ---- R1: impressions per advertiser ----

type r1State struct {
	Count sym.SymInt
}

func (s *r1State) Fields() []sym.Value { return []sym.Value{&s.Count} }

// R1 counts impressions per advertiser — counting written as a UDA, the
// paper's canonical example of an aggregation systems normally special-
// case but SYMPLE parallelizes automatically.
func r1() *Spec {
	q := &core.Query[*r1State, struct{}, int64]{
		Name: "R1",
		GroupBy: func(rec []byte) ([]byte, struct{}, bool) {
			adv := data.Field(rec, 1)
			return adv, struct{}{}, adv != nil
		},
		NewState: func() *r1State { return &r1State{Count: sym.NewSymInt(0)} },
		Update: func(_ *sym.Ctx, s *r1State, _ struct{}) {
			s.Count.Inc()
		},
		Result:      func(_ string, s *r1State) int64 { return s.Count.Get() },
		EncodeEvent: func(*wire.Encoder, struct{}) {},
		DecodeEvent: func(d *wire.Decoder) (struct{}, error) { return struct{}{}, d.Err() },
	}
	return makeSpec("R1", "Number of impressions per advertiser", "redshift",
		false, true, false, q,
		func(key string, count int64) string { return resultLine(key, count) })
}

// ---- R2: advertisers operating only in a single country ----

// The country tracker is a SymEnum over the closed country domain plus a
// sentinel for "no country seen yet".
var r2Sentinel = int64(len(data.RedshiftCountries))

type r2State struct {
	Country sym.SymEnum
	Multi   sym.SymBool
	Count   sym.SymInt
}

func (s *r2State) Fields() []sym.Value {
	return []sym.Value{&s.Country, &s.Multi, &s.Count}
}

// R2 lists advertisers whose every impression is in one country.
func r2() *Spec {
	q := &core.Query[*r2State, int64, string]{
		Name: "R2",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			adv, country := data.Field2(rec, 1, 3)
			cc := data.CountryIndex(country)
			return adv, int64(cc), cc >= 0
		},
		NewState: func() *r2State {
			return &r2State{
				Country: sym.NewSymEnum(len(data.RedshiftCountries)+1, r2Sentinel),
				Multi:   sym.NewSymBool(false),
				Count:   sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *r2State, cc int64) {
			s.Count.Inc()
			if s.Country.Eq(ctx, r2Sentinel) {
				s.Country.Set(cc)
			} else if s.Country.Ne(ctx, cc) {
				s.Multi.Set(true)
			}
		},
		Result: func(_ string, s *r2State) string {
			if s.Multi.Get() {
				return ""
			}
			c := s.Country.Get()
			if c == r2Sentinel {
				return ""
			}
			return fmt.Sprintf("%s(%d)", data.RedshiftCountries[c], s.Count.Get())
		},
		EncodeEvent: func(e *wire.Encoder, cc int64) { e.Uvarint(uint64(cc)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("R2", "List of advertisers operating only in a single country", "redshift",
		true, true, false, q,
		func(key string, country string) string {
			if country == "" {
				return ""
			}
			return key + ":" + country
		})
}

// ---- R3: periods over an hour with no impressions ----

// redshiftLayout is the wall-clock format stored in the log. The paper
// found R3c dominated by parsing it, not by symbolic execution; here a
// resident segment parses it on R3's first two jobs over it, and every
// later job reads the grouped events the segment keeps.
const redshiftLayout = "2006-01-02 15:04:05"

// parseRedshiftTime converts a redshiftLayout datetime to Unix seconds.
// It is the parser behind R3's GroupBy and agrees with
// time.Parse(redshiftLayout, ·) on every input: the exact 19-byte
// all-digit form in calendar range is decoded in place, and anything
// else (which time.Parse mostly rejects, but not always: a one-digit
// hour, fractional seconds) is handed to time.Parse.
func parseRedshiftTime(b []byte) (int64, bool) {
	if len(b) == len(redshiftLayout) && b[4] == '-' && b[7] == '-' && b[10] == ' ' && b[13] == ':' && b[16] == ':' {
		y, mo, d := decimalField(b[0:4]), decimalField(b[5:7]), decimalField(b[8:10])
		h, mi, sec := decimalField(b[11:13]), decimalField(b[14:16]), decimalField(b[17:19])
		if y >= 0 && mo >= 1 && mo <= 12 && d >= 1 && h >= 0 && h < 24 && mi >= 0 && mi < 60 && sec >= 0 && sec < 60 {
			// time.Date normalises a day past the month's end into the
			// next month; a date that comes back unchanged was in range.
			if t := time.Date(y, time.Month(mo), d, h, mi, sec, 0, time.UTC); t.Day() == d {
				return t.Unix(), true
			}
		}
	}
	t, err := time.Parse(redshiftLayout, string(b))
	if err != nil {
		return 0, false
	}
	return t.Unix(), true
}

// decimalField reads an all-digit field, −1 if any byte is not a digit.
func decimalField(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

type r3State struct {
	LastTs sym.SymInt
	Out    sym.SymIntVector // (gap start, gap end) pairs
}

func (s *r3State) Fields() []sym.Value { return []sym.Value{&s.LastTs, &s.Out} }

// R3 reports, per advertiser, the cases when its ads were not showing
// for more than 1 hour.
func r3() *Spec {
	q := &core.Query[*r3State, int64, []int64]{
		Name: "R3",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			dt, adv := data.Field2(rec, 0, 1)
			ts, ok := parseRedshiftTime(dt)
			return adv, ts, ok
		},
		NewState: func() *r3State { return &r3State{LastTs: sym.NewSymInt(farFuture)} },
		Update: func(ctx *sym.Ctx, s *r3State, ts int64) {
			if s.LastTs.Lt(ctx, ts-3600) {
				s.Out.PushInt(&s.LastTs)
				s.Out.Push(ts)
			}
			s.LastTs.Set(ts)
		},
		Result:      func(_ string, s *r3State) []int64 { return s.Out.Elems() },
		EncodeEvent: func(e *wire.Encoder, ts int64) { e.Varint(ts) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	return makeSpec("R3", "Cases for advertiser when their ads were not showing for more than 1 hour", "redshift",
		false, true, false, q,
		func(key string, gaps []int64) string { return resultLine(key, gaps...) })
}

// ---- R4: lengths of single-campaign runs ----

var r4Sentinel = int64(data.NumRedshiftCampaigns)

type r4State struct {
	Cur sym.SymEnum
	Len sym.SymInt
	Out sym.SymIntVector
}

func (s *r4State) Fields() []sym.Value {
	return []sym.Value{&s.Cur, &s.Len, &s.Out}
}

// R4 reports, per advertiser, the length of each maximal run of
// impressions showing a single campaign.
func r4() *Spec {
	q := &core.Query[*r4State, int64, []int64]{
		Name: "R4",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			adv, camp := data.Field2(rec, 1, 2)
			c := data.CampaignIndex(camp)
			return adv, int64(c), c >= 0
		},
		NewState: func() *r4State {
			return &r4State{
				Cur: sym.NewSymEnum(data.NumRedshiftCampaigns+1, r4Sentinel),
				Len: sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *r4State, c int64) {
			if s.Cur.Eq(ctx, c) {
				s.Len.Inc()
			} else {
				s.Out.PushInt(&s.Len)
				s.Cur.Set(c)
				s.Len.Set(1)
			}
		},
		Result: func(_ string, s *r4State) []int64 {
			// Drop the 0 pushed on the first-ever campaign change and
			// include the still-open run.
			out := make([]int64, 0, s.Out.Len()+1)
			for _, v := range s.Out.Elems() {
				if v > 0 {
					out = append(out, v)
				}
			}
			return append(out, s.Len.Get())
		},
		EncodeEvent: func(e *wire.Encoder, c int64) { e.Uvarint(uint64(c)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("R4", "Lengths of runs for which only a single campaign by an advertiser is shown", "redshift",
		true, true, false, q,
		func(key string, runs []int64) string { return resultLine(key, runs...) })
}
