package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of
// xs: the value at 1-based rank ceil(p·N) of the sorted samples. It
// never interpolates, so the reported number is a latency some job
// actually had.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile
// among n samples.
func percentileRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// noise self-check computes the spread the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// interval is a half-open span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's own time: its duration minus the part of it
// that the children cover. Children may overlap each other and may
// stick out of the span; only their union inside the span counts.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	edge := span.start
	for _, c := range cs {
		if c.start > edge {
			edge = c.start
		}
		if c.end > edge {
			covered += c.end - edge
			edge = c.end
		}
	}
	return span.end - span.start - covered
}
