// Package queries implements the paper's 12 evaluation queries (Table 1):
// G1–G4 over the GitHub log, B1–B3 over the Bing query log, T1 over the
// Twitter firehose, and R1–R4 over the RedShift ad impressions. Each
// query is a core.Query — a GroupBy plus a UDA written against the
// symbolic data types — together with enough type-erased plumbing for the
// benchmark harness to run any query under any engine and compare
// outputs across engines.
package queries

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/sym"
)

// Run is the type-erased outcome of executing a query under one engine.
type Run struct {
	// Digest is an order-insensitive hash of the formatted results;
	// equal digests across engines mean equal outputs.
	Digest uint64
	// NumResults counts groups with a non-empty result line.
	NumResults int
	Metrics    *mapreduce.Metrics
	Sym        core.SymStats
}

// Spec is a type-erased query: metadata for Table 1 plus engine runners.
type Spec struct {
	ID          string
	Description string
	Dataset     string

	// Sym types the UDA uses, for the Table 1 columns.
	UsesEnum, UsesInt, UsesPred bool

	Sequential func(segs []*mapreduce.Segment) (*Run, error)
	Baseline   func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error)
	Symple     func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error)

	// BaselinePair is the two halves Baseline runs as one job — its map,
	// and a reduce returning one group's result line — for a caller that
	// runs the shuffle between them itself: Fig 4 pipes the map output
	// through Unix sort. Digest over the lines is the Run's.
	BaselinePair func() (mapreduce.MapFunc, func(key string, values []mapreduce.Shuffled) (string, error), error)

	// SympleWithOptions runs the SYMPLE engine with explicit symbolic
	// engine options (for the merging / path-cap ablations).
	SympleWithOptions func(segs []*mapreduce.Segment, conf mapreduce.Config, opts sym.Options) (*Run, error)
}

// SymTypesString renders the Table 1 "Sym Types Used" cell.
func (s *Spec) SymTypesString() string {
	var parts []string
	if s.UsesEnum {
		parts = append(parts, "Enum")
	}
	if s.UsesInt {
		parts = append(parts, "Int")
	}
	if s.UsesPred {
		parts = append(parts, "Pred")
	}
	return strings.Join(parts, "+")
}

// digestResults hashes formatted per-key result lines (Digest).
func digestResults[R any](results map[string]R, format func(key string, r R) string) (uint64, int) {
	lines := make([]string, 0, len(results))
	for k, r := range results {
		lines = append(lines, format(k, r))
	}
	return Digest(lines)
}

// Digest hashes result lines, order-insensitive, and counts them: a
// Run's Digest and NumResults, as digestMerged computes them. Empty
// lines (filtered results) are skipped. It sorts lines in place.
func Digest(lines []string) (uint64, int) {
	sort.Strings(lines)
	for len(lines) > 0 && lines[0] == "" {
		lines = lines[1:]
	}
	r := digestMerged(lines, nil, nil)
	return r.Digest, r.NumResults
}

// makeSpec wraps a typed query into a Spec.
func makeSpec[S sym.State, E, R any](
	id, desc, dataset string,
	usesEnum, usesInt, usesPred bool,
	q *core.Query[S, E, R],
	format func(key string, r R) string,
) *Spec {
	wrap := func(out *core.Output[R], err error) (*Run, error) {
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", id, err)
		}
		d, n := digestResults(out.Results, format)
		return &Run{Digest: d, NumResults: n, Metrics: out.Metrics, Sym: out.Sym}, nil
	}
	c, err := core.Compile(q)
	if err != nil {
		// The twelve queries are fixed code: only a bug fails to compile.
		panic(fmt.Sprintf("query %s: %v", id, err))
	}
	// SYMPLE formats each result line where its group folds, into the
	// slot of its ordinal in its partition: a retried reduce attempt,
	// replaying ordinals 0…n−1, overwrites the failed one's lines instead
	// of adding to them.
	symple := func(c *core.Compiled[S, E, R], segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error) {
		lines := make([][]string, max(conf.NumReducers, 1))
		out, err := c.Run(segs, conf, func(p, g int, key string, r R) {
			lines[p] = append(lines[p][:g], format(key, r))
		})
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", id, err)
		}
		d, n := Digest(slices.Concat(lines...))
		return &Run{Digest: d, NumResults: n, Metrics: out.Metrics, Sym: out.Sym}, nil
	}
	// The one compiled query serves the batch jobs below, cluster workers'
	// map side (see cluster.go) and the query service's sessions (see
	// serve.go): each job finds the exec sites the last one left.
	cluster.RegisterJob(id, c.Mapper)
	registerServeQuery(id, q, c, format)
	return &Spec{
		ID: id, Description: desc, Dataset: dataset,
		UsesEnum: usesEnum, UsesInt: usesInt, UsesPred: usesPred,
		Sequential: func(segs []*mapreduce.Segment) (*Run, error) {
			return wrap(core.RunSequential(q, segs))
		},
		Baseline: func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error) {
			return wrap(core.RunBaseline(q, segs, conf))
		},
		Symple: func(segs []*mapreduce.Segment, conf mapreduce.Config) (*Run, error) {
			return symple(c, segs, conf)
		},
		BaselinePair: func() (mapreduce.MapFunc, func(string, []mapreduce.Shuffled) (string, error), error) {
			b, err := core.NewBaseline(q, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("query %s: %w", id, err)
			}
			return b.Map, func(key string, values []mapreduce.Shuffled) (string, error) {
				r, err := b.Reduce(key, values)
				if err != nil {
					return "", err
				}
				return format(key, r), nil
			}, nil
		},
		SympleWithOptions: func(segs []*mapreduce.Segment, conf mapreduce.Config, opts sym.Options) (*Run, error) {
			// A shallow copy, compiled on its own: q is shared with the
			// jobs, cluster assignments and serve sessions of c, any of
			// which may be running concurrently.
			qq := *q
			qq.Options = opts
			cc, err := core.Compile(&qq)
			if err != nil {
				return nil, fmt.Errorf("query %s: %w", id, err)
			}
			return symple(cc, segs, conf)
		},
	}
}

// resultLine renders one result line, "key:v₁,v₂,…", in one allocation
// however many values it holds: the line is measured first and written
// into a builder of exactly its size. No values, no line: a key with
// nothing to report renders "".
func resultLine(key string, vs ...int64) string {
	if len(vs) == 0 {
		return ""
	}
	var digits [20]byte     // a sign and 19 digits
	n := len(key) + len(vs) // the ':' and the commas
	for _, v := range vs {
		n += len(strconv.AppendInt(digits[:0], v, 10))
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(key)
	for i, v := range vs {
		b.WriteByte(":,"[min(i, 1)])
		b.Write(strconv.AppendInt(digits[:0], v, 10))
	}
	return b.String()
}

// all builds the twelve specs once per process, in Table 1 order: each
// query is compiled once (makeSpec), and registered with the cluster and
// the query service once.
var all = sync.OnceValue(func() []*Spec {
	return []*Spec{
		g1(), g2(), g3(), g4(),
		b1(), b2(), b3(),
		t1(),
		r1(), r2(), r3(), r4(),
	}
})

// All returns every query spec, in Table 1 order: the same Specs on
// every call.
func All() []*Spec { return slices.Clone(all()) }

// ByID returns the query with the given ID, or nil.
func ByID(id string) *Spec {
	for _, s := range all() {
		if s.ID == id {
			return s
		}
	}
	return nil
}
