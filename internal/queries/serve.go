package queries

import (
	"maps"
	"sync"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sym"
	"repro/internal/wire"
)

// registerServeQuery publishes the query to the serve registry so the
// long-running query service can fold it incrementally. The serve
// session uses exactly the in-process SYMPLE mapper (default options), so
// cached bundles are the bytes a batch run shuffles, and reuses the
// spec's format func through digestResults — the service's digest is
// Run.Digest for the same data.
func registerServeQuery[S sym.State, E, R any](
	id string,
	q *core.Query[S, E, R],
	format func(key string, r R) string,
) {
	serve.Register(id, &serveRunner[S, E, R]{id: id, q: q, format: format,
		schema: sync.OnceValues(func() (*sym.Schema[S], error) { return sym.NewSchema(q.NewState) }),
		mappers: sync.OnceValues(func() (func(*obs.Trace) mapreduce.MapFunc, error) {
			return core.SympleMappers(q, core.SympleOptions{})
		})})
}

// serveRunner builds fold sessions for one query. What a session needs
// that depends on the query alone — the compiled schema of its fold site
// and the map side of its cold runs — is built at first use and shared
// by every session after: a job allocates what it folds and maps.
type serveRunner[S sym.State, E, R any] struct {
	id      string
	q       *core.Query[S, E, R]
	format  func(key string, r R) string
	schema  func() (*sym.Schema[S], error)
	mappers func() (func(*obs.Trace) mapreduce.MapFunc, error)
}

// SchemaKey names the map-output schema for cache keying. Serve runs
// always map with default SympleOptions, so the query ID is the whole
// key; grow it if serve ever maps under options that change bundles.
func (r *serveRunner[S, E, R]) SchemaKey() string { return "symple/" + r.id }

func (r *serveRunner[S, E, R]) NewSession() (serve.Session, error) {
	sc, err := r.schema()
	if err != nil {
		return nil, err
	}
	return &serveSession[S, E, R]{r: r, site: sym.NewFolder(sc),
		base: &servePrefix[S, E, R]{r: r}, own: map[string]*sym.FoldState[S]{}}, nil
}

// servePrefix is a fold frozen after a prefix of a dataset: a state per
// group key that nothing writes any more, and the result over them,
// computed by the first job that asks.
type servePrefix[S sym.State, E, R any] struct {
	r      *serveRunner[S, E, R]
	states map[string]*sym.FoldState[S]
	bytes  int64
	once   sync.Once
	res    serve.Result
}

func (p *servePrefix[S, E, R]) Bytes() int64 { return p.bytes }

func (p *servePrefix[S, E, R]) result() serve.Result {
	p.once.Do(func() { p.res = p.r.result(p.states, nil) })
	return p.res
}

// result formats and digests the states of base as overlaid by own. The
// queries' Result funcs only read the state (they build fresh output
// containers): neither a live fold nor a shared state is disturbed.
func (r *serveRunner[S, E, R]) result(base, own map[string]*sym.FoldState[S]) serve.Result {
	results := make(map[string]R, len(base)+len(own))
	for key, st := range base {
		if own[key] == nil {
			results[key] = r.q.Result(key, st.State())
		}
	}
	for key, st := range own {
		results[key] = r.q.Result(key, st.State())
	}
	d, n := digestResults(results, r.format)
	return serve.Result{Digest: d, NumResults: n}
}

// stateOverhead is what a frozen state is charged beyond its key and
// its encoded fields: the map slot, the container and the field headers.
const stateOverhead = 128

// serveSession is one job's standing fold: one fold site and a state per
// group key, fed each folded segment's bundle for that key. The states
// are a frozen prefix's, shared, overlaid by the ones this session owns:
// a key is folded from its shared state into an owned one the first time
// a segment touches it, and in place from then on. Segments arrive in
// dataset order, so a key absent from a segment keeps its state.
type serveSession[S sym.State, E, R any] struct {
	r    *serveRunner[S, E, R]
	site *sym.Folder[S]
	base *servePrefix[S, E, R]
	own  map[string]*sym.FoldState[S]
}

func (s *serveSession[S, E, R]) Mapper(trace *obs.Trace) (mapreduce.MapFunc, error) {
	mk, err := s.r.mappers()
	if err != nil {
		return nil, err
	}
	return mk(trace), nil
}

func (s *serveSession[S, E, R]) FoldPart(part *serve.Part) error {
	for key, data := range part.All() {
		if err := s.fold(key, data); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSession[S, E, R]) Fold(bundles map[string][]byte) error {
	for key, data := range bundles {
		if err := s.fold(key, data); err != nil {
			return err
		}
	}
	return nil
}

// fold folds key's bundle of one segment into key's state.
func (s *serveSession[S, E, R]) fold(key string, data []byte) error {
	st := s.own[key]
	src := st
	if st == nil {
		st = s.site.NewState()
		if src = s.base.states[key]; src == nil {
			src = st
		}
	}
	if _, err := s.site.AddBundleFrom(st, src, data); err != nil {
		return err
	}
	s.own[key] = st
	return nil
}

func (s *serveSession[S, E, R]) Freeze() serve.Prefix {
	if len(s.own) == 0 {
		return s.base
	}
	p := &servePrefix[S, E, R]{r: s.r,
		states: make(map[string]*sym.FoldState[S], len(s.base.states)+len(s.own))}
	maps.Copy(p.states, s.base.states)
	maps.Copy(p.states, s.own)
	var enc wire.Encoder
	for key, st := range p.states {
		enc.Reset()
		st.Encode(&enc)
		p.bytes += int64(len(key)+enc.Len()) + stateOverhead
	}
	s.base, s.own = p, map[string]*sym.FoldState[S]{}
	return p
}

func (s *serveSession[S, E, R]) Resume(p serve.Prefix) {
	s.base = p.(*servePrefix[S, E, R])
	clear(s.own)
}

func (s *serveSession[S, E, R]) Result() (serve.Result, error) {
	if len(s.own) == 0 {
		return s.base.result(), nil
	}
	return s.r.result(s.base.states, s.own), nil
}
