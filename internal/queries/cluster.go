package queries

import (
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/mapreduce"
)

// Cluster wiring: user map functions are closures over typed queries
// and cannot cross a socket, so coordinator and worker instead agree on
// a registry key — the query ID — and both sides link the same
// registrations. Building the Specs (makeSpec) registers each query's
// compiled map side under its ID; a worker process just has to force the
// specs into existence once at startup.

// RegisterClusterJobs makes every query's map side available to the
// cluster job registry. Worker processes (cmd/sympled, the spawned
// worker modes) call this once at startup; it is idempotent.
func RegisterClusterJobs() { all() }

// ClusterSpec builds the cluster.JobSpec a coordinator ships to
// workers for query id under the given engine config. The spec must
// mirror exactly the knob that shapes map output — the reducer count —
// or the worker would produce different bytes than the in-process
// engine.
func ClusterSpec(id string, conf mapreduce.Config) cluster.JobSpec {
	return cluster.JobSpec{Query: id, NumReducers: conf.NumReducers}
}

// GoldenSegments is the segment count the committed golden corpora are
// cut into (testdata/golden_digests.txt).
const GoldenSegments = 6

// GoldenDatasets generates the seeded laptop-scale instances of all
// four corpora that the golden digests and the cross-package
// differential suites (queries, cluster) run against. Deterministic in
// (segments, seeds), so every process — including spawned worker
// subprocesses in other tests — regenerates identical records.
func GoldenDatasets(segments int) map[string][]*mapreduce.Segment {
	return map[string][]*mapreduce.Segment{
		"github": data.GenGithub(data.GithubConfig{
			Records: 8000, Repos: 300, Segments: segments, Filler: 8, Seed: 11}),
		"bing": data.GenBing(data.BingConfig{
			Records: 8000, Users: 400, Geos: 12, Segments: segments,
			Filler: 8, Seed: 12, Outages: 6}),
		"twitter": data.GenTwitter(data.TwitterConfig{
			Records: 8000, Hashtags: 200, Users: 500, Segments: segments,
			Filler: 8, Seed: 13}),
		"redshift": data.GenRedshift(data.RedshiftConfig{
			Records: 8000, Advertisers: 40, Segments: segments,
			Seed: 14, DarkWindows: 2}),
	}
}
