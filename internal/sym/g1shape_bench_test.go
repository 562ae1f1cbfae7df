package sym

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// BenchmarkBatchMixedGate drives the batch path over G1-shaped keyed
// groups: ~17 mixed events per key, a dominant identity event (0) with
// p=0.55, update concretizes on the first non-identity event.
func BenchmarkBatchMixedGate(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	const keys = 256
	const perKey = 17
	groups := make([][]int64, keys)
	total := 0
	for k := range groups {
		evs := make([]int64, perKey)
		for i := range evs {
			if r.Intn(100) >= 55 {
				evs[i] = int64(1 + r.Intn(7))
			}
		}
		groups[k] = evs
		total += perKey
	}
	x := NewSchemaExecutor(newSchema(newIntState(0)), gateUpdate, DefaultOptions())
	var enc wire.Encoder
	first := true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, evs := range groups {
			if x.IdentityBundle(evs) != nil {
				continue
			}
			if !first {
				x.Reset()
			}
			first = false
			if err := x.FeedBatch(evs); err != nil {
				b.Fatal(err)
			}
			enc.Reset()
			if _, err := x.AppendBundle(&enc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(total), "ns/rec")
}
