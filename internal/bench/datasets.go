package bench

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/mapreduce"
)

// Scale sizes the synthetic datasets an experiment runs on. Group counts
// track the record count to preserve the paper's records-per-group
// regimes at any scale.
type Scale struct {
	Records  int // records per dataset
	Segments int // input segments = measured map tasks
}

// Datasets holds one generated instance of every corpus.
type Datasets struct {
	Scale             Scale
	Github            []*mapreduce.Segment
	Bing              []*mapreduce.Segment
	Twitter           []*mapreduce.Segment
	Redshift          []*mapreduce.Segment
	RedshiftCondensed []*mapreduce.Segment
}

// GenDatasets generates every corpus at the given scale.
func GenDatasets(sc Scale) *Datasets {
	n := sc.Records
	return &Datasets{
		Scale: sc,
		// Filler sizes match the paper's record sizes: github and the
		// complete RedShift variant carry ~1KB records whose fields are
		// mostly scanned past and discarded (§6.3).
		Github: data.GenGithub(data.GithubConfig{
			Records: n, Repos: max(n/20, 1), Segments: sc.Segments,
			Filler: 820, Seed: 42}),
		Bing: data.GenBing(data.BingConfig{
			Records: n, Users: max(n/5, 1), Geos: 50, Segments: sc.Segments,
			Filler: 100, Seed: 43, Outages: max(n/15000, 3)}),
		Twitter: data.GenTwitter(data.TwitterConfig{
			Records: n, Hashtags: max(n/10, 1), Users: max(n/4, 1),
			Segments: sc.Segments, Filler: 300, Seed: 44}),
		Redshift: data.GenRedshift(data.RedshiftConfig{
			Records: n, Advertisers: 100, Segments: sc.Segments,
			Filler: 850, Seed: 45, DarkWindows: 3}),
		RedshiftCondensed: data.GenRedshift(data.RedshiftConfig{
			Records: n, Advertisers: 100, Segments: sc.Segments,
			Seed: 45, DarkWindows: 3, Condensed: true}),
	}
}

// For returns the corpus a query runs on; condensed selects the
// condensed RedShift variant (the paper's R1c–R4c).
func (d *Datasets) For(dataset string, condensed bool) ([]*mapreduce.Segment, error) {
	switch dataset {
	case "github":
		return d.Github, nil
	case "bing":
		return d.Bing, nil
	case "twitter":
		return d.Twitter, nil
	case "redshift":
		if condensed {
			return d.RedshiftCondensed, nil
		}
		return d.Redshift, nil
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", dataset)
}
