package queries

import (
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sym"
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
	serve.Register(id, &serveRunner[S, E, R]{id: id, q: q, format: format})
}

// serveRunner builds fold sessions for one query.
type serveRunner[S sym.State, E, R any] struct {
	id     string
	q      *core.Query[S, E, R]
	format func(key string, r R) string
}

// SchemaKey names the map-output schema for cache keying. Serve runs
// always map with default SympleOptions, so the query ID is the whole
// key; grow it if serve ever maps under options that change bundles.
func (r *serveRunner[S, E, R]) SchemaKey() string { return "symple/" + r.id }

func (r *serveRunner[S, E, R]) NewSession() (serve.Session, error) {
	sc, err := sym.NewSchema(r.q.NewState)
	if err != nil {
		return nil, err
	}
	return &serveSession[S, E, R]{r: r, site: sym.NewFolder(sc), states: map[string]*sym.FoldState[S]{}}, nil
}

// serveSession is one job's standing fold: one fold site for the
// session and a state per group key, fed each folded segment's bundle
// for that key. Segments arrive in dataset order (the Session
// contract), so a key absent from a segment simply keeps its state.
type serveSession[S sym.State, E, R any] struct {
	r      *serveRunner[S, E, R]
	site   *sym.Folder[S]
	states map[string]*sym.FoldState[S]
}

func (s *serveSession[S, E, R]) Mapper(trace *obs.Trace) (mapreduce.MapFunc, error) {
	return core.SympleMapper(s.r.q, core.SympleOptions{}, trace)
}

func (s *serveSession[S, E, R]) Fold(bundles map[string][]byte) error {
	for key, data := range bundles {
		st := s.states[key]
		if st == nil {
			st = s.site.NewState()
			s.states[key] = st
		}
		if _, err := s.site.AddBundle(st, data); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveSession[S, E, R]) Result() (serve.Result, error) {
	// The states are live: the queries' Result funcs are read-only over
	// the final state (they build fresh output containers), so
	// formatting here does not disturb the fold.
	results := make(map[string]R, len(s.states))
	for key, st := range s.states {
		results[key] = s.r.q.Result(key, st.State())
	}
	d, n := digestResults(results, s.r.format)
	return serve.Result{Digest: d, NumResults: n}, nil
}
