package queries

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mapreduce"
)

// This file implements every query a second time in plain Go — no
// symbolic types, no shared Update code — and checks the Sequential and
// SYMPLE engines against these oracles. Engine-vs-engine agreement alone
// could mask a bug in a UDA's logic; these oracles pin the intended
// semantics of each Table 1 description.

// flatten concatenates segments in global order.
func flatten(segs []*mapreduce.Segment) [][]byte {
	var out [][]byte
	for _, s := range segs {
		out = append(out, s.Records...)
	}
	return out
}

// oracleDigest hashes pre-formatted result lines (key plus payload),
// dropping empties — the same normalization the Spec formatters use.
func oracleDigest(lines map[string]string) (uint64, int) {
	return digestResults(lines, func(_ string, line string) string { return line })
}

// formatInts is the oracles' own comma-separated rendering, independent
// of the specs' resultLine.
func formatInts(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func intsLine(key string, vs []int64) string {
	if len(vs) == 0 {
		return ""
	}
	return fmt.Sprintf("%s:%s", key, formatInts(vs))
}

// ---- github oracles ----

func oracleG1(recs [][]byte) map[string]string {
	onlyPush := map[string]bool{}
	for _, rec := range recs {
		op := data.GithubOpFromName(data.Field(rec, 2))
		if op < 0 {
			continue
		}
		repo := string(data.Field(rec, 1))
		if _, seen := onlyPush[repo]; !seen {
			onlyPush[repo] = true
		}
		if op != data.OpPush {
			onlyPush[repo] = false
		}
	}
	out := map[string]string{}
	for repo, ok := range onlyPush {
		if ok {
			out[repo] = repo
		} else {
			out[repo] = ""
		}
	}
	return out
}

func oracleG2(recs [][]byte) map[string]string {
	prev := map[string]int64{}
	outs := map[string][]int64{}
	for _, rec := range recs {
		op := data.GithubOpFromName(data.Field(rec, 2))
		if op < 0 {
			continue
		}
		repo := string(data.Field(rec, 1))
		if op == data.OpDeleteRepo {
			if p, seen := prev[repo]; seen {
				outs[repo] = append(outs[repo], p)
			}
		}
		prev[repo] = int64(op)
	}
	out := map[string]string{}
	for repo := range prev {
		out[repo] = intsLine(repo, outs[repo])
	}
	return out
}

func oracleG3(recs [][]byte) map[string]string {
	type st struct {
		in    bool
		count int64
		out   []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		op := data.GithubOpFromName(data.Field(rec, 2))
		if op < 0 {
			continue
		}
		repo := string(data.Field(rec, 1))
		s := states[repo]
		if s == nil {
			s = &st{}
			states[repo] = s
		}
		switch op {
		case data.OpPullOpen:
			s.in, s.count = true, 0
		case data.OpPullClose:
			if s.in {
				s.out = append(s.out, s.count)
				s.in = false
			}
		default:
			if s.in {
				s.count++
			}
		}
	}
	out := map[string]string{}
	for repo, s := range states {
		out[repo] = intsLine(repo, s.out)
	}
	return out
}

func oracleG4(recs [][]byte) map[string]string {
	type st struct {
		deleted bool
		delTs   int64
		out     []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		op := data.GithubOpFromName(data.Field(rec, 2))
		if op != data.OpBranchCreate && op != data.OpBranchDelete {
			continue
		}
		ts, ok := data.ParseInt(data.Field(rec, 0))
		if !ok {
			continue
		}
		repo := string(data.Field(rec, 1))
		s := states[repo]
		if s == nil {
			s = &st{}
			states[repo] = s
		}
		if op == data.OpBranchDelete {
			s.deleted, s.delTs = true, ts
		} else if s.deleted {
			s.out = append(s.out, ts-s.delTs)
			s.deleted = false
		}
	}
	out := map[string]string{}
	for repo, s := range states {
		out[repo] = intsLine(repo, s.out)
	}
	return out
}

// ---- bing oracles ----

func bingSuccess(rec []byte) (ts int64, ok bool) {
	okFlag, valid := data.ParseInt(data.Field(rec, 3))
	if !valid || okFlag != 1 {
		return 0, false
	}
	ts, valid = data.ParseInt(data.Field(rec, 0))
	return ts, valid
}

func oracleB1(recs [][]byte) map[string]string {
	var lastOk int64 = -1
	var gaps []int64
	seen := false
	for _, rec := range recs {
		ts, ok := bingSuccess(rec)
		if !ok {
			continue
		}
		seen = true
		if lastOk >= 0 && ts-lastOk > 120 {
			gaps = append(gaps, lastOk, ts)
		}
		lastOk = ts
	}
	out := map[string]string{}
	if seen {
		out["all"] = intsLine("all", gaps)
	}
	return out
}

func oracleB2(recs [][]byte) map[string]string {
	last := map[string]int64{}
	counts := map[string]int64{}
	for _, rec := range recs {
		ts, ok := bingSuccess(rec)
		if !ok {
			continue
		}
		geo := string(data.Field(rec, 2))
		if prev, seen := last[geo]; seen && ts-prev > 120 {
			counts[geo]++
		} else if !seen {
			counts[geo] += 0
		}
		last[geo] = ts
	}
	out := map[string]string{}
	for geo := range last {
		if counts[geo] > 0 {
			out[geo] = fmt.Sprintf("%s:%d", geo, counts[geo])
		} else {
			out[geo] = ""
		}
	}
	return out
}

func oracleB3(recs [][]byte) map[string]string {
	type st struct {
		prev     int64
		seen     bool
		count    int64
		sessions []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		ts, valid := data.ParseInt(data.Field(rec, 0))
		if !valid {
			continue
		}
		user := string(data.Field(rec, 1))
		s := states[user]
		if s == nil {
			s = &st{}
			states[user] = s
		}
		if s.seen && ts-s.prev < 120 {
			s.count++
		} else {
			if s.count > 0 {
				s.sessions = append(s.sessions, s.count)
			}
			s.count = 1
		}
		s.prev, s.seen = ts, true
	}
	out := map[string]string{}
	for user, s := range states {
		out[user] = intsLine(user, append(append([]int64(nil), s.sessions...), s.count))
	}
	return out
}

// ---- twitter oracle ----

func oracleT1(recs [][]byte) map[string]string {
	type st struct {
		done  bool
		clean int64
		run   int64
		out   []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		spam, valid := data.ParseInt(data.Field(rec, 3))
		if !valid || (spam != 0 && spam != 1) {
			continue
		}
		tag := string(data.Field(rec, 1))
		s := states[tag]
		if s == nil {
			s = &st{}
			states[tag] = s
		}
		if s.done {
			continue
		}
		if spam == 1 {
			s.run++
			if s.run == 5 {
				s.out = append(s.out, s.clean)
				s.done = true
			}
		} else {
			s.run = 0
			s.clean++
		}
	}
	out := map[string]string{}
	for tag, s := range states {
		out[tag] = intsLine(tag, s.out)
	}
	return out
}

// ---- redshift oracles ----

func oracleR1(recs [][]byte) map[string]string {
	counts := map[string]int64{}
	for _, rec := range recs {
		adv := data.Field(rec, 1)
		if adv == nil {
			continue
		}
		counts[string(adv)]++
	}
	out := map[string]string{}
	for adv, n := range counts {
		out[adv] = fmt.Sprintf("%s:%d", adv, n)
	}
	return out
}

func oracleR2(recs [][]byte) map[string]string {
	type st struct {
		country int
		seen    bool
		multi   bool
		count   int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		cc := data.CountryIndex(data.Field(rec, 3))
		if cc < 0 {
			continue
		}
		adv := string(data.Field(rec, 1))
		s := states[adv]
		if s == nil {
			s = &st{}
			states[adv] = s
		}
		s.count++
		if !s.seen {
			s.country, s.seen = cc, true
		} else if s.country != cc {
			s.multi = true
		}
	}
	out := map[string]string{}
	for adv, s := range states {
		if s.seen && !s.multi {
			out[adv] = fmt.Sprintf("%s:%s(%d)", adv, data.RedshiftCountries[s.country], s.count)
		} else {
			out[adv] = ""
		}
	}
	return out
}

func oracleR3(recs [][]byte) map[string]string {
	type st struct {
		last int64
		seen bool
		gaps []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		tm, err := time.Parse("2006-01-02 15:04:05", string(data.Field(rec, 0)))
		if err != nil {
			continue
		}
		ts := tm.Unix()
		adv := string(data.Field(rec, 1))
		s := states[adv]
		if s == nil {
			s = &st{}
			states[adv] = s
		}
		if s.seen && ts-s.last > 3600 {
			s.gaps = append(s.gaps, s.last, ts)
		}
		s.last, s.seen = ts, true
	}
	out := map[string]string{}
	for adv, s := range states {
		out[adv] = intsLine(adv, s.gaps)
	}
	return out
}

func oracleR4(recs [][]byte) map[string]string {
	type st struct {
		cur  int
		seen bool
		run  int64
		runs []int64
	}
	states := map[string]*st{}
	for _, rec := range recs {
		c := data.CampaignIndex(data.Field(rec, 2))
		if c < 0 {
			continue
		}
		adv := string(data.Field(rec, 1))
		s := states[adv]
		if s == nil {
			s = &st{}
			states[adv] = s
		}
		if s.seen && s.cur == c {
			s.run++
		} else {
			if s.run > 0 {
				s.runs = append(s.runs, s.run)
			}
			s.cur, s.seen, s.run = c, true, 1
		}
	}
	out := map[string]string{}
	for adv, s := range states {
		out[adv] = intsLine(adv, append(append([]int64(nil), s.runs...), s.run))
	}
	return out
}

// TestOraclesAllQueries compares every query's Sequential and SYMPLE
// outputs against its independent oracle.
func TestOraclesAllQueries(t *testing.T) {
	datasets := smallDatasets(6)
	oracles := map[string]func([][]byte) map[string]string{
		"G1": oracleG1, "G2": oracleG2, "G3": oracleG3, "G4": oracleG4,
		"B1": oracleB1, "B2": oracleB2, "B3": oracleB3,
		"T1": oracleT1,
		"R1": oracleR1, "R2": oracleR2, "R3": oracleR3, "R4": oracleR4,
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			segs := datasets[spec.Dataset]
			wantDigest, wantN := oracleDigest(oracles[spec.ID](flatten(segs)))
			if wantN == 0 {
				t.Fatal("oracle produced no results")
			}
			seq, err := spec.Sequential(segs)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Digest != wantDigest || seq.NumResults != wantN {
				t.Errorf("sequential %x (%d results) != oracle %x (%d)",
					seq.Digest, seq.NumResults, wantDigest, wantN)
			}
			symp, err := spec.Symple(segs, mapreduce.Config{NumReducers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if symp.Digest != wantDigest {
				t.Errorf("symple %x != oracle %x", symp.Digest, wantDigest)
			}
		})
	}
}
