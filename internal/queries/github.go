package queries

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/sym"
	"repro/internal/wire"
)

// GitHub log schema: ts  repo  op  actor  payload (data.GenGithub).
// The GroupBy functions below extract only the fields each UDA touches,
// exactly as the paper hand-optimizes its baseline.

// githubOp is G1–G3's GroupBy: key = repo, event = op code, unknown ops
// dropped. One function, so the three share a segment's grouped form.
func githubOp(rec []byte) ([]byte, int64, bool) {
	repo, opName := data.Field2(rec, 1, 2)
	op := data.GithubOpFromName(opName)
	return repo, int64(op), op >= 0
}

// ---- G1: repositories with only push commands ----

type g1State struct {
	OnlyPush sym.SymBool
}

func (s *g1State) Fields() []sym.Value { return []sym.Value{&s.OnlyPush} }

// G1 returns all repositories whose every operation is a push.
func g1() *Spec {
	q := &core.Query[*g1State, int64, bool]{
		Name:     "G1",
		GroupBy:  githubOp,
		NewState: func() *g1State { return &g1State{OnlyPush: sym.NewSymBool(true)} },
		Update: func(_ *sym.Ctx, s *g1State, op int64) {
			if op != data.OpPush {
				s.OnlyPush.Set(false)
			}
		},
		Result:      func(_ string, s *g1State) bool { return s.OnlyPush.Get() },
		EncodeEvent: func(e *wire.Encoder, op int64) { e.Uvarint(uint64(op)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("G1", "Return all repositories with only push commands", "github",
		true, false, false, q,
		func(key string, onlyPush bool) string {
			if !onlyPush {
				return ""
			}
			return key
		})
}

// ---- G2: operations directly preceding a delete operation ----

// The previous operation is a SymEnum over the closed op domain plus a
// sentinel for "no previous operation".
const g2Sentinel = data.NumGithubOps

type g2State struct {
	Prev sym.SymEnum
	Out  sym.SymIntVector
}

func (s *g2State) Fields() []sym.Value { return []sym.Value{&s.Prev, &s.Out} }

// G2 reports, per repository, each operation that directly preceded a
// repository deletion.
func g2() *Spec {
	q := &core.Query[*g2State, int64, []int64]{
		Name:    "G2",
		GroupBy: githubOp,
		NewState: func() *g2State {
			return &g2State{Prev: sym.NewSymEnum(data.NumGithubOps+1, g2Sentinel)}
		},
		Update: func(_ *sym.Ctx, s *g2State, op int64) {
			if op == data.OpDeleteRepo {
				s.Out.PushEnum(&s.Prev)
			}
			s.Prev.Set(op)
		},
		Result: func(_ string, s *g2State) []int64 {
			// Drop sentinel entries (deletion was the first operation).
			var out []int64
			for _, v := range s.Out.Elems() {
				if v != g2Sentinel {
					out = append(out, v)
				}
			}
			return out
		},
		EncodeEvent: func(e *wire.Encoder, op int64) { e.Uvarint(uint64(op)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("G2", "All operations on a repository directly preceding a delete operation", "github",
		true, false, false, q,
		func(key string, ops []int64) string { return resultLine(key, ops...) })
}

// ---- G3: number of operations between pull open and close ----

type g3State struct {
	InPull sym.SymBool
	Count  sym.SymInt
	Out    sym.SymIntVector
}

func (s *g3State) Fields() []sym.Value {
	return []sym.Value{&s.InPull, &s.Count, &s.Out}
}

// G3 reports, per repository, the number of operations executed between
// each pull-request open and its close.
func g3() *Spec {
	q := &core.Query[*g3State, int64, []int64]{
		Name:    "G3",
		GroupBy: githubOp,
		NewState: func() *g3State {
			return &g3State{InPull: sym.NewSymBool(false), Count: sym.NewSymInt(0)}
		},
		Update: func(ctx *sym.Ctx, s *g3State, op int64) {
			switch op {
			case data.OpPullOpen:
				s.InPull.Set(true)
				s.Count.Set(0)
			case data.OpPullClose:
				if s.InPull.IsTrue(ctx) {
					s.Out.PushInt(&s.Count)
					s.InPull.Set(false)
				}
			default:
				if s.InPull.IsTrue(ctx) {
					s.Count.Inc()
				}
			}
		},
		Result:      func(_ string, s *g3State) []int64 { return s.Out.Elems() },
		EncodeEvent: func(e *wire.Encoder, op int64) { e.Uvarint(uint64(op)) },
		DecodeEvent: func(d *wire.Decoder) (int64, error) { return int64(d.Uvarint()), d.Err() },
	}
	return makeSpec("G3", "Number of operations executed on a repository between pull open and close", "github",
		true, true, false, q,
		func(key string, counts []int64) string { return resultLine(key, counts...) })
}

// ---- G4: time between branch deletion and branch creation ----

type g4Event struct {
	Op int64
	Ts int64
}

type g4State struct {
	Deleted sym.SymBool
	DelTs   sym.SymInt
	Out     sym.SymIntVector
}

func (s *g4State) Fields() []sym.Value {
	return []sym.Value{&s.Deleted, &s.DelTs, &s.Out}
}

// G4 reports, per repository, the elapsed time between each branch
// deletion and the next branch creation.
func g4() *Spec {
	q := &core.Query[*g4State, g4Event, []int64]{
		Name: "G4",
		GroupBy: func(rec []byte) ([]byte, g4Event, bool) {
			tsRaw, repo, opName := data.Field3(rec, 0, 1, 2)
			op := data.GithubOpFromName(opName)
			if op != data.OpBranchCreate && op != data.OpBranchDelete {
				return nil, g4Event{}, false
			}
			ts, ok := data.ParseInt(tsRaw)
			return repo, g4Event{Op: int64(op), Ts: ts}, ok
		},
		NewState: func() *g4State {
			return &g4State{Deleted: sym.NewSymBool(false), DelTs: sym.NewSymInt(0)}
		},
		Update: func(ctx *sym.Ctx, s *g4State, e g4Event) {
			switch e.Op {
			case data.OpBranchDelete:
				s.Deleted.Set(true)
				s.DelTs.Set(e.Ts)
			case data.OpBranchCreate:
				if s.Deleted.IsTrue(ctx) {
					// e.Ts − DelTs, possibly still symbolic in DelTs.
					delta := s.DelTs.Rescaled(-1, e.Ts)
					s.Out.PushInt(&delta)
					s.Deleted.Set(false)
				}
			}
		},
		Result: func(_ string, s *g4State) []int64 { return s.Out.Elems() },
		EncodeEvent: func(e *wire.Encoder, ev g4Event) {
			e.Uvarint(uint64(ev.Op))
			e.Varint(ev.Ts)
		},
		DecodeEvent: func(d *wire.Decoder) (g4Event, error) {
			return g4Event{Op: int64(d.Uvarint()), Ts: d.Varint()}, d.Err()
		},
	}
	return makeSpec("G4", "The time between branch deletion and branch creation in a repository", "github",
		true, true, false, q,
		func(key string, deltas []int64) string { return resultLine(key, deltas...) })
}
