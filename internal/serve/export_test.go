package serve

import "repro/internal/mapreduce"

// CachedPart shows the external tests what a cold run left in the
// summary cache for one segment.
func (s *Server) CachedPart(schema string, seg mapreduce.Digest) (*Part, bool) {
	return s.cache.Get(schema, seg)
}
