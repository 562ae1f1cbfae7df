package data

import (
	"math/rand"

	"repro/internal/mapreduce"
)

// Twitter firehose (stand-in for the 1.23TB 24-hour corpus). Schema,
// tab-separated:
//
//	ts  hashtag  user  spam  text
//
// spam ∈ {0,1} marks tweets the spam filter flagged. Per hashtag, the
// generator emits a run of unflagged tweets followed by a flagged tail —
// T1 measures "spam learning speed": how many tweets passed before the
// filter produced at least five consecutive flags.

// TwitterConfig sizes the generated dataset.
type TwitterConfig struct {
	Records  int
	Hashtags int // T1's group count: large (mappers see few events/group)
	Users    int
	Segments int
	Filler   int
	Seed     int64
}

// GenTwitter generates the dataset as ordered, timestamp-sorted segments.
func GenTwitter(cfg TwitterConfig) []*mapreduce.Segment {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Hashtags <= 0 {
		cfg.Hashtags = 1
	}
	// Per hashtag: number of clean tweets before the filter "learns".
	learnAfter := make([]int, cfg.Hashtags)
	seen := make([]int, cfg.Hashtags)
	spammy := make([]bool, cfg.Hashtags)
	for h := range learnAfter {
		spammy[h] = r.Intn(3) == 0 // a third of hashtags attract spam
		learnAfter[h] = 1 + r.Intn(20)
	}
	records := make([][]byte, 0, cfg.Records)
	var b lineBuilder
	ts := int64(1_430_000_000)
	pad := filler(r, cfg.Filler)
	// Hashtags trend: they are active for a bounded stretch of the day.
	tags := newActiveSet(r, cfg.Hashtags, 64, max(cfg.Records/cfg.Hashtags, 1))
	for i := 0; i < cfg.Records; i++ {
		ts += int64(r.Intn(2))
		h := tags.pick()
		spam := int64(0)
		if spammy[h] && seen[h] >= learnAfter[h] {
			// After learning, the filter flags most tweets; occasional
			// misses break runs, exercising the run-length reset.
			if r.Intn(10) != 0 {
				spam = 1
			}
		}
		seen[h]++
		b.reset()
		b.intField(ts)
		b.field(keyName("h", h))
		b.field(keyName("u", r.Intn(cfg.Users)))
		b.intField(spam)
		b.field(pad)
		records = append(records, b.bytes())
	}
	return segmented(records, cfg.Segments)
}
