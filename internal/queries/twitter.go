package queries

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/sym"
	"repro/internal/wire"
)

// Twitter firehose schema: ts  hashtag  user  spam  text
// (data.GenTwitter).

// ---- T1: spam learning speed per hashtag ----

type t1State struct {
	Done  sym.SymBool // filter has produced 5 consecutive flags
	Clean sym.SymInt  // tweets not marked spam before that point
	Run   sym.SymInt  // current consecutive-spam run length
	Out   sym.SymIntVector
}

func (s *t1State) Fields() []sym.Value {
	return []sym.Value{&s.Done, &s.Clean, &s.Run, &s.Out}
}

// T1 measures spam learning speed: per hashtag, the number of tweets not
// marked as spam before the filter produced at least 5 consecutive
// spam-marked tweets.
func t1() *Spec {
	q := &core.Query[*t1State, int64, []int64]{
		Name: "T1",
		GroupBy: func(rec []byte) ([]byte, int64, bool) {
			tag, spamRaw := data.Field2(rec, 1, 3)
			spam, valid := data.ParseInt(spamRaw)
			return tag, spam, valid && (spam == 0 || spam == 1)
		},
		NewState: func() *t1State {
			return &t1State{
				Done:  sym.NewSymBool(false),
				Clean: sym.NewSymInt(0),
				Run:   sym.NewSymInt(0),
			}
		},
		Update: func(ctx *sym.Ctx, s *t1State, spam int64) {
			if s.Done.IsTrue(ctx) {
				return
			}
			if spam == 1 {
				s.Run.Inc()
				if s.Run.Eq(ctx, 5) {
					s.Out.PushInt(&s.Clean)
					s.Done.Set(true)
				}
			} else {
				s.Run.Set(0)
				s.Clean.Inc()
			}
		},
		Result:      func(_ string, s *t1State) []int64 { return s.Out.Elems() },
		EncodeEvent: func(e *wire.Encoder, spam int64) { e.Uvarint(uint64(spam)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("T1", "Spam learning speed — no. queries not marked as spam, followed by at least 5 queries marked as spam per hashtag", "twitter",
		true, true, false, q,
		func(key string, counts []int64) string { return resultLine(key, counts...) })
}
