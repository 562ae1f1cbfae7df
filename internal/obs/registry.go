package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a typed metrics registry: named counters, gauges, and
// histograms. The engine opens a fresh registry per job, derives the
// legacy Metrics view from it, and merges it into the caller's registry
// (Config.Registry) when one is set — so cross-job aggregation is the
// caller's choice, never an accident.
//
// Get-or-create is lock-striped per kind; the instruments themselves are
// lock-free (counters, gauges) or finely locked (histograms), so the hot
// paths observe without contending on the registry map.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count. Negative Adds are
// recorded (not applied) so SelfCheck can flag the violation.
type Counter struct {
	v   atomic.Int64
	neg atomic.Int64
}

// Add increments the counter. Negative deltas are rejected and counted
// as violations for SelfCheck.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	if d < 0 {
		c.neg.Add(1)
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a high-water mark: it only rises.
type Gauge struct {
	v atomic.Int64
}

// Max raises the gauge to v if v is larger (for high-water marks).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with 2^(i-1) <= v < 2^i (bucket 0: v == 0).
// 64 buckets cover the full int64 range.
const histBuckets = 64

// Histogram records a distribution of non-negative int64 observations
// (nanoseconds, bytes, counts) in power-of-two buckets with exact
// count/sum/min/max. Negative observations are rejected and tallied for
// SelfCheck.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
	neg     int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if v < 0 {
		h.neg++
		h.mu.Unlock()
		return
	}
	h.buckets[bucketIdx(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// bucketIdx maps v >= 0 to its power-of-two bucket.
func bucketIdx(v int64) int {
	if v == 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// HistSnapshot is a point-in-time copy of a histogram's aggregates.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// Snapshot returns the histogram's current aggregates.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
}

// Counter returns (creating if needed) the named counter. Nil-safe: a
// nil registry returns a nil instrument whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// MergeInto folds this registry's values into dst: counters and
// histogram aggregates add, gauges take the maximum (each is a
// high-water mark). Safe when dst is nil.
func (r *Registry) MergeInto(dst *Registry) {
	if r == nil || dst == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		dst.Counter(name).Add(c.Value())
	}
	for name, g := range r.gauges {
		dst.Gauge(name).Max(g.Value())
	}
	for name, h := range r.hists {
		dh := dst.Histogram(name)
		h.mu.Lock()
		dh.mu.Lock()
		for i, b := range h.buckets {
			dh.buckets[i] += b
		}
		if h.count > 0 {
			if dh.count == 0 || h.min < dh.min {
				dh.min = h.min
			}
			if h.max > dh.max {
				dh.max = h.max
			}
		}
		dh.count += h.count
		dh.sum += h.sum
		dh.neg += h.neg
		dh.mu.Unlock()
		h.mu.Unlock()
	}
}

// Snapshot returns all instrument values by name, for reports and tests.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts)+len(r.gauges)+len(r.hists))
	for name, c := range r.counts {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		out[name+".count"] = s.Count
		out[name+".sum"] = s.Sum
	}
	return out
}

// SelfCheck validates the registry's internal invariants: no negative
// counter adds or histogram observations ever happened, every
// histogram's bucket total equals its count, min <= max, and
// count*min <= sum <= count*max. A healthy engine can run SelfCheck
// after every job; a failure means an instrument was misused or a
// counter went backwards.
func (r *Registry) SelfCheck() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counts))
	for name := range r.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := r.counts[name].neg.Load(); n > 0 {
			return fmt.Errorf("obs: counter %q received %d negative adds", name, n)
		}
	}
	names = names[:0]
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		h.mu.Lock()
		var btotal int64
		for _, b := range h.buckets {
			btotal += b
		}
		count, sum, mn, mx, neg := h.count, h.sum, h.min, h.max, h.neg
		h.mu.Unlock()
		switch {
		case neg > 0:
			return fmt.Errorf("obs: histogram %q received %d negative observations", name, neg)
		case btotal != count:
			return fmt.Errorf("obs: histogram %q bucket total %d != count %d", name, btotal, count)
		case count > 0 && mn > mx:
			return fmt.Errorf("obs: histogram %q min %d > max %d", name, mn, mx)
		case count > 0 && (float64(sum) < float64(count)*float64(mn)-0.5 ||
			float64(sum) > float64(count)*float64(mx)+0.5):
			return fmt.Errorf("obs: histogram %q sum %d outside [count*min, count*max] = [%d, %d]",
				name, sum, count*mn, count*mx)
		case sum < 0:
			return fmt.Errorf("obs: histogram %q sum overflowed", name)
		}
	}
	return nil
}
