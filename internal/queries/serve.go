package queries

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sym"
	"repro/internal/wire"
)

// registerServeQuery publishes the query to the serve registry so the
// long-running query service can fold it incrementally. A session maps
// and folds on c, the compiled query batch runs use (default options), so
// cached bundles are the bytes a batch run shuffles, and reuses the
// spec's format func through digestResults — the service's digest is
// Run.Digest for the same data.
func registerServeQuery[S sym.State, E, R any](
	id string,
	q *core.Query[S, E, R],
	c *core.Compiled[S, E, R],
	format func(key string, r R) string,
) {
	serve.Register(id, &serveRunner[S, E, R]{id: id, q: q, c: c, format: format,
		empty: &servePrefix[S, E, R]{res: digestMerged(nil, nil, nil)}})
}

// serveRunner builds fold sessions for one query, all on its one
// compiled schema and exec-site pool.
type serveRunner[S sym.State, E, R any] struct {
	id     string
	q      *core.Query[S, E, R]
	c      *core.Compiled[S, E, R]
	format func(key string, r R) string
	empty  *servePrefix[S, E, R] // what a session with no prefix resumes from
}

// SchemaKey names the map-output schema for cache keying. The SYMPLE
// engine has no options, so the query ID is the whole key.
func (r *serveRunner[S, E, R]) SchemaKey() string { return "symple/" + r.id }

func (r *serveRunner[S, E, R]) NewSession() (serve.Session, error) {
	return &serveSession[S, E, R]{r: r, site: sym.NewFolder(r.c.Schema()), base: r.empty}, nil
}

// line is key's result line over st. The queries' Result funcs only read
// the state (they build fresh output containers): neither a live fold
// nor a shared state is disturbed.
func (r *serveRunner[S, E, R]) line(key string, st *sym.FoldState[S]) string {
	return r.format(key, r.q.Result(key, st.State()))
}

// servePrefix is a fold frozen after a prefix of a dataset, and its
// answer: a state per group key that nothing writes any more, the keys'
// non-empty result lines sorted as lines — the order digestResults
// hashes them in — and the Result over them. A key has a dense id; its
// state, its spelling and the position of its line (-1: the line is
// empty) are arrays over the id, so the one hash lookup that finds the
// id finds all three. Built whole by Freeze, never written after.
type servePrefix[S sym.State, E, R any] struct {
	ids   map[string]int32
	keys  []string
	sts   []*sym.FoldState[S]
	lines []string
	pos   []int32
	bytes int64
	res   serve.Result
}

func (p *servePrefix[S, E, R]) Bytes() int64 { return p.bytes }

// What a frozen key is charged beyond its spelling and its encoded
// fields — the map slot, the container and the field headers — and what
// a line is beyond its text: its header, its key's and its position.
const (
	stateOverhead = 128
	lineOverhead  = 40
)

// serveSession is one job's standing fold: one fold site and a state per
// group key, fed each folded segment's bundle for that key. The states
// are a frozen prefix's, shared, overlaid by the ones this session owns:
// a key is folded from its shared state into an owned one the first time
// a segment touches it, and in place from then on. Segments arrive in
// dataset order, so a key absent from a segment keeps its state. A
// session with no prefix is one over the empty prefix.
type serveSession[S sym.State, E, R any] struct {
	r    *serveRunner[S, E, R]
	site *sym.Folder[S]
	base *servePrefix[S, E, R]
	// The overlay, made at the first fold: over holds, by the base's id,
	// the states owned in place of the base's (owned of them; nil: still
	// shared), fresh the states of keys the base lacks.
	over  []*sym.FoldState[S]
	owned int
	fresh map[string]*sym.FoldState[S]
}

func (s *serveSession[S, E, R]) Mapper(trace *obs.Trace) (mapreduce.MapFunc, error) {
	return s.r.c.Mapper(trace), nil
}

func (s *serveSession[S, E, R]) FoldPart(part *serve.Part) error {
	s.open(part.Len())
	for key, data := range part.All() {
		if err := s.fold(key, data); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSession[S, E, R]) Fold(bundles map[string][]byte) error {
	s.open(len(bundles))
	for key, data := range bundles {
		if err := s.fold([]byte(key), data); err != nil {
			return err
		}
	}
	return nil
}

// open readies the overlay for a segment of n groups. Over an empty base
// every group is a fresh key; over a prefix few are.
func (s *serveSession[S, E, R]) open(n int) {
	if s.fresh != nil {
		return
	}
	if len(s.base.keys) > 0 {
		n = 0
	}
	s.over = make([]*sym.FoldState[S], len(s.base.keys))
	s.fresh = make(map[string]*sym.FoldState[S], n)
}

// fold folds key's bundle of one segment into key's state. A key the
// base holds is looked up once; key aliases the part and is copied only
// when a fresh key is kept.
func (s *serveSession[S, E, R]) fold(key, data []byte) error {
	var st, src *sym.FoldState[S]
	if id, ok := s.base.ids[string(key)]; ok {
		if st = s.over[id]; st == nil {
			st, src = s.site.NewState(), s.base.sts[id]
			s.over[id] = st
			s.owned++
		}
	} else if st = s.fresh[string(key)]; st == nil {
		st = s.site.NewState()
		s.fresh[string(key)] = st
	}
	if src == nil {
		src = st
	}
	return s.site.Fold(st, src, data)
}

// Freeze builds the prefix whole — the base's keys keep their ids, the
// fresh ones take the next, every line is formatted, sorted and digested
// here, once — so Bytes charges what is held and what is shared is immutable.
func (s *serveSession[S, E, R]) Freeze() serve.Prefix {
	if s.owned == 0 && len(s.fresh) == 0 {
		return s.base
	}
	b, n := s.base, len(s.base.keys)+len(s.fresh)
	p := &servePrefix[S, E, R]{ids: make(map[string]int32, n), pos: make([]int32, n),
		keys: append(make([]string, 0, n), b.keys...), sts: append(make([]*sym.FoldState[S], 0, n), b.sts...)}
	maps.Copy(p.ids, b.ids)
	for id, st := range s.over {
		if st != nil {
			p.sts[id] = st
		}
	}
	for key, st := range s.fresh {
		p.ids[key] = int32(len(p.keys))
		p.keys, p.sts = append(p.keys, key), append(p.sts, st)
	}
	order := make([]int32, 0, n) // ids with a line, in line order
	lines := make([]string, n)   // by id
	var enc wire.Encoder
	for id, st := range p.sts {
		enc.Reset()
		st.Encode(&enc)
		p.bytes += int64(len(p.keys[id])+enc.Len()) + stateOverhead
		if lines[id] = s.r.line(p.keys[id], st); lines[id] != "" {
			order = append(order, int32(id))
			p.bytes += int64(len(lines[id])) + lineOverhead
		}
		p.pos[id] = -1
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(lines[x], lines[y]) })
	p.lines = make([]string, len(order))
	for i, id := range order {
		p.lines[i], p.pos[id] = lines[id], int32(i)
	}
	p.res = digestMerged(p.lines, nil, nil)
	s.Resume(p)
	return p
}

func (s *serveSession[S, E, R]) Resume(p serve.Prefix) {
	s.base, s.over, s.owned, s.fresh = p.(*servePrefix[S, E, R]), nil, 0, nil
}

// Result is the base's when the session owns nothing. Otherwise only the
// owned keys are formatted and sorted: their lines replace the base's for
// those keys in one merge pass over the base's sorted lines.
func (s *serveSession[S, E, R]) Result() (serve.Result, error) {
	b := s.base
	if s.owned == 0 && len(s.fresh) == 0 {
		return b.res, nil
	}
	own := make([]string, 0, s.owned+len(s.fresh))
	drop := make([]int32, 0, s.owned)
	for id, st := range s.over {
		if st == nil {
			continue
		}
		if at := b.pos[id]; at >= 0 {
			drop = append(drop, at)
		}
		if l := s.r.line(b.keys[id], st); l != "" {
			own = append(own, l)
		}
	}
	for key, st := range s.fresh {
		if l := s.r.line(key, st); l != "" {
			own = append(own, l)
		}
	}
	slices.Sort(own)
	slices.Sort(drop)
	return digestMerged(b.lines, drop, own), nil
}

// digestMerged is the one result digest (Digest is its plain case):
// FNV-1a over the sorted lines base, less the ones at the ascending
// positions drop, merged with the sorted lines own — one pass, each line
// followed by a newline — and their count.
func digestMerged(base []string, drop []int32, own []string) serve.Result {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h, n, i := uint64(offset64), 0, 0
	for {
		var l string
		switch {
		case len(drop) > 0 && int(drop[0]) == i:
			i, drop = i+1, drop[1:]
			continue
		case i < len(base) && (len(own) == 0 || base[i] <= own[0]):
			l, i = base[i], i+1
		case len(own) > 0:
			l, own = own[0], own[1:]
		default:
			return serve.Result{Digest: h, NumResults: n}
		}
		n++
		for j := 0; j < len(l); j++ {
			h = (h ^ uint64(l[j])) * prime64
		}
		h = (h ^ '\n') * prime64
	}
}
