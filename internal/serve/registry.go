// Package serve is the long-running query service: a multi-tenant
// server that hosts named datasets, accepts concurrent jobs over the
// cluster frame protocol (job_submit/accept/update/result/cancel), and
// answers them through an incremental summary cache.
//
// The service is the "Monoidify!" payoff of the paper's summaries:
// because a segment's symbolic summary is a composable monoid element,
// it depends only on (segment content, query schema) — never on which
// job asked — and so does the fold of an ordered list of them. The cache
// holds each mapped segment's encoded per-key summary bundles under the
// segment's address and, for a segment list seen twice, the folded
// states and their sorted result lines under the list's: a re-submitted
// job is a lookup, an append-only job maps the new segments (a map-only
// engine job whose task outputs are the parts), folds them over the
// shared prefix and re-formats only the lines of the keys they touched.
// Admission control (fair per-tenant FIFO with concurrency and
// in-flight-memory budgets, plus global queue-depth rejection) keeps one
// tenant from starving the rest; a tail mode re-folds a growing dataset
// and streams refreshed results.
package serve

import (
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// Result is one fold's observable outcome, mirroring queries.Run: the
// order-insensitive digest of the formatted result lines and the count
// of non-empty lines.
type Result struct {
	Digest     uint64
	NumResults int
}

// Session is one job's standing fold: one sym.Folder and, per key, either
// a state the session owns or one it shares with a frozen Prefix. A
// session is single-goroutine (the job that owns it); tail jobs keep
// theirs alive across refreshes and Fold only the appended segments.
type Session interface {
	// Mapper builds a fresh engine map function for one cold run —
	// exactly the mapper the in-process SYMPLE engine would use, so the
	// bundles a serve job caches are the bytes a batch run shuffles.
	// trace receives the run's map spans; it may be nil.
	Mapper(trace *obs.Trace) (mapreduce.MapFunc, error)
	// FoldPart folds one segment's per-key summary bundles into the
	// standing result. Segments must be folded in dataset order; the
	// part is immutable and may be shared with the cache. A key whose
	// state is shared folds from it into a state the session owns.
	FoldPart(part *Part) error
	// Fold is FoldPart over bundles held in a map.
	Fold(bundles map[string][]byte) error
	// Freeze returns the standing fold as a Prefix. The session goes on
	// from it: everything it owned is now shared and no longer written.
	Freeze() Prefix
	// Resume replaces the standing fold with a frozen one (of the same
	// Runner) that covers everything folded so far and more.
	Resume(p Prefix)
	// Result formats and digests the standing result. Callable between
	// Folds (tail jobs call it per refresh). With nothing folded since
	// Freeze or Resume it is the Prefix's own; otherwise it costs what
	// the keys folded since cost, not the keys standing.
	Result() (Result, error)
}

// Prefix is a fold frozen after some prefix of a dataset's segments: the
// per-key states, their result lines in digest order and the Result
// over them, all built by Freeze. It is immutable, so the cache,
// concurrent jobs and tail sessions share one without locks.
type Prefix interface {
	// Bytes is the memory held (states, lines, index), for the cache budget.
	Bytes() int64
}

// Runner builds fold sessions for one registered query. Implementations
// live in internal/queries, which holds the typed Query values; the
// service itself is query-agnostic.
type Runner interface {
	NewSession() (Session, error)
	// SchemaKey names the query schema for cache keying: two jobs share
	// cached bundles iff their SchemaKeys match. It must change when
	// anything that affects map output changes.
	SchemaKey() string
}

var (
	regMu   sync.RWMutex
	runners = map[string]Runner{}
)

// Register publishes the runner for a query ID, replacing any previous
// registration (internal/queries registers each query once per process,
// when it builds its Specs).
func Register(id string, r Runner) {
	regMu.Lock()
	runners[id] = r
	regMu.Unlock()
}

// Lookup returns the registered runner, or nil.
func Lookup(id string) Runner {
	regMu.RLock()
	defer regMu.RUnlock()
	return runners[id]
}
