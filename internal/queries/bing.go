package queries

import (
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/sym"
	"repro/internal/wire"
)

// Bing query-log schema: ts  user  geo  ok  query (data.GenBing).

// farFuture initializes "last success" trackers so the first event never
// registers an outage: ts − farFuture is hugely negative.
const farFuture = math.MaxInt64 / 2

// bingOkTs parses the ts of a successful query; ok is false for a failed
// query or an unparsable field — only successful queries matter.
func bingOkTs(tsRaw, okRaw []byte) (ts int64, ok bool) {
	if v, valid := data.ParseInt(okRaw); !valid || v != 1 {
		return 0, false
	}
	return data.ParseInt(tsRaw)
}

// ---- B1: global outages (a single group) ----

type b1State struct {
	LastOk sym.SymInt
	Out    sym.SymIntVector // (start, end) pairs of outage gaps
}

func (s *b1State) Fields() []sym.Value { return []sym.Value{&s.LastOk, &s.Out} }

// B1 reports every window of more than 2 minutes with no successful
// query by any user. Grouping key is the constant "all": the query has
// exactly one group, so symbolic parallelism is the only parallelism.
func b1() *Spec {
	q := &core.Query[*b1State, int64, []int64]{
		Name: "B1",
		GroupBy: func(rec []byte) (string, int64, bool) {
			ts, ok := bingOkTs(data.Field2(rec, 0, 3))
			return "all", ts, ok
		},
		NewState: func() *b1State { return &b1State{LastOk: sym.NewSymInt(farFuture)} },
		Update: func(ctx *sym.Ctx, s *b1State, ts int64) {
			// Outage iff ts − LastOk > 120, i.e. LastOk < ts − 120.
			if s.LastOk.Lt(ctx, ts-120) {
				s.Out.PushInt(&s.LastOk) // outage start (may be symbolic)
				s.Out.Push(ts)           // outage end
			}
			s.LastOk.Set(ts)
		},
		Result:      func(_ string, s *b1State) []int64 { return s.Out.Elems() },
		EncodeEvent: func(e *wire.Encoder, ts int64) { e.Varint(ts) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	return makeSpec("B1", "Outages: more than 2 minutes with no successful query by any user", "bing",
		false, true, false, q,
		func(key string, gaps []int64) string { return resultLine(key, gaps...) })
}

// ---- B2: outages per geographic area ----

// b2Gap is the black-box predicate of the B2 SymPred: more than two
// minutes elapsed since the previously seen successful query.
func b2Gap(prev, ts int64) bool { return ts-prev > 120 }

type b2State struct {
	Prev  sym.SymPred[int64]
	Count sym.SymInt
}

func (s *b2State) Fields() []sym.Value { return []sym.Value{&s.Prev, &s.Count} }

// B2 counts, per geographic area, windows of more than 2 minutes with no
// successful query from that area (local outages).
func b2() *Spec {
	q := &core.Query[*b2State, int64, int64]{
		Name: "B2",
		GroupBy: func(rec []byte) (string, int64, bool) {
			tsRaw, geo, okRaw := data.Field3(rec, 0, 2, 3)
			if ts, ok := bingOkTs(tsRaw, okRaw); ok {
				return string(geo), ts, true
			}
			return "", 0, false
		},
		NewState: func() *b2State {
			return &b2State{
				Prev:  sym.NewSymPred(b2Gap, sym.Int64Codec(), farFuture),
				Count: sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *b2State, ts int64) {
			if s.Prev.EvalPred(ctx, ts) {
				s.Count.Inc()
			}
			s.Prev.SetValue(ts)
		},
		Result:      func(_ string, s *b2State) int64 { return s.Count.Get() },
		EncodeEvent: func(e *wire.Encoder, ts int64) { e.Varint(ts) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	return makeSpec("B2", "Outages per geographic area of the query (local outages)", "bing",
		false, false, true, q,
		func(key string, count int64) string {
			if count == 0 {
				return ""
			}
			return resultLine(key, count)
		})
}

// ---- B3: queries per session per user ----

// b3SameSession: consecutive queries less than 2 minutes apart belong to
// the same session.
func b3SameSession(prev, ts int64) bool { return ts-prev < 120 }

type b3State struct {
	Prev  sym.SymPred[int64]
	Count sym.SymInt
	Out   sym.SymIntVector
}

func (s *b3State) Fields() []sym.Value {
	return []sym.Value{&s.Prev, &s.Count, &s.Out}
}

// B3 reports, per user, the number of queries in each session (< 2
// minutes between consecutive queries). The group count is huge — the
// regime where the paper observes SYMPLE stops helping (§6.5).
func b3() *Spec {
	q := &core.Query[*b3State, int64, []int64]{
		Name: "B3",
		GroupBy: func(rec []byte) (string, int64, bool) {
			tsRaw, user := data.Field2(rec, 0, 1)
			ts, ok := data.ParseInt(tsRaw)
			return string(user), ts, ok
		},
		NewState: func() *b3State {
			return &b3State{
				Prev:  sym.NewSymPred(b3SameSession, sym.Int64Codec(), math.MinInt64/2),
				Count: sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *b3State, ts int64) {
			if s.Prev.EvalPred(ctx, ts) {
				s.Count.Inc()
			} else {
				s.Out.PushInt(&s.Count)
				s.Count.Set(1)
			}
			s.Prev.SetValue(ts)
		},
		Result: func(_ string, s *b3State) []int64 {
			// Sessions completed plus the open one; the initial 0 pushed
			// by the first-ever query is dropped.
			out := make([]int64, 0, s.Out.Len()+1)
			for _, v := range s.Out.Elems() {
				if v > 0 {
					out = append(out, v)
				}
			}
			return append(out, s.Count.Get())
		},
		EncodeEvent: func(e *wire.Encoder, ts int64) { e.Varint(ts) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return d.Varint(), d.Err() },
	}
	return makeSpec("B3", "Number of queries in a session per user (< 2 minutes between queries)", "bing",
		false, true, true, q,
		func(key string, sessions []int64) string { return resultLine(key, sessions...) })
}
