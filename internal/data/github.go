package data

import (
	"math/rand"

	"repro/internal/mapreduce"
)

// GitHub repository-operation log (stand-in for the 419GB githubarchive
// corpus, Feb 2011–Sep 2014). Schema, tab-separated:
//
//	ts  repo  op  actor  payload
//
// Ops are drawn so the patterns G1–G4 mine actually occur: push-only
// repositories, deletes preceded by varied operations, pull-request
// open/close windows, and branch delete→create gaps.

// GitHub op codes. The enum domain is small and closed, as SymEnum needs.
const (
	OpPush = iota
	OpPullOpen
	OpPullClose
	OpBranchCreate
	OpBranchDelete
	OpDeleteRepo
	OpFork
	OpIssue
	NumGithubOps
)

// GithubOpNames maps op codes to their log representation.
var GithubOpNames = [NumGithubOps]string{
	"push", "pull_open", "pull_close", "branch_create",
	"branch_delete", "delete_repo", "fork", "issue",
}

// GithubOpFromName reverses GithubOpNames; -1 when unknown.
func GithubOpFromName(b []byte) int {
	for i, n := range GithubOpNames {
		if string(b) == n {
			return i
		}
	}
	return -1
}

// GithubConfig sizes the generated dataset.
type GithubConfig struct {
	Records  int
	Repos    int // group count; the paper's github queries have millions
	Segments int
	Filler   int // payload bytes per record (complete-variant realism)
	Seed     int64
}

// GenGithub generates the dataset as ordered, timestamp-sorted segments.
func GenGithub(cfg GithubConfig) []*mapreduce.Segment {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Repos <= 0 {
		cfg.Repos = 1
	}
	records := make([][]byte, 0, cfg.Records)
	var b lineBuilder
	ts := int64(1_300_000_000) // seconds, globally increasing
	pushOnly := make([]bool, cfg.Repos)
	for i := range pushOnly {
		// Roughly a fifth of repositories only ever see pushes (G1).
		pushOnly[i] = r.Intn(5) == 0
	}
	pad := filler(r, cfg.Filler)
	// Repositories are temporally local: active for a bounded stretch of
	// the multi-year log (see data.activeSet).
	repos := newActiveSet(r, cfg.Repos, 64, max(cfg.Records/cfg.Repos, 1))
	for i := 0; i < cfg.Records; i++ {
		ts += int64(r.Intn(30))
		repo := repos.pick()
		var op int
		if pushOnly[repo] {
			op = OpPush
		} else {
			// Weighted ops: pushes dominate real logs.
			switch w := r.Intn(100); {
			case w < 45:
				op = OpPush
			case w < 55:
				op = OpPullOpen
			case w < 65:
				op = OpPullClose
			case w < 73:
				op = OpBranchCreate
			case w < 81:
				op = OpBranchDelete
			case w < 85:
				op = OpDeleteRepo
			case w < 92:
				op = OpFork
			default:
				op = OpIssue
			}
		}
		b.reset()
		b.intField(ts)
		b.field(keyName("r", repo))
		b.field(GithubOpNames[op])
		b.field(keyName("u", r.Intn(1000)))
		b.field(pad)
		records = append(records, b.bytes())
	}
	return segmented(records, cfg.Segments)
}
