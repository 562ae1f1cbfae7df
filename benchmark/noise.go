package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// noiseMetric is one workload × end-to-end metric across the repeats.
type noiseMetric struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is (Q3 − Q1) ÷ median of the values, quartiles as Python's
	// statistics.quantiles(values, n=4) gives them.
	Spread float64 `json:"iqr_over_median"`
	// Gap is the relative distance between the medians of runs 1,3,5…
	// and runs 2,4,6…: two sets of runs of the same code.
	Gap   float64 `json:"odd_even_gap"`
	Bound float64 `json:"bound"`
	// OK: spread within the bound and gap within half of it.
	OK bool `json:"ok"`
	// MeetsIssueTarget: the same check against the bound the issue
	// asked for, which BENCHMARK.json does not promise on this host.
	IssueTarget      float64 `json:"issue_target"`
	MeetsIssueTarget bool    `json:"meets_issue_target"`
}

// issueTarget is the bound the issue fixed for a metric: 10% for the
// timing metrics, 5% for peak_rss_mb.
func issueTarget(metric string) float64 {
	if metric == "peak_rss_mb" {
		return 0.05
	}
	return 0.10
}

// noiseCheck runs the untraced benchmark o.repeat times in fresh
// processes on the same inputs and writes benchmark/NOISE.json. It
// fails when a metric does not repeat within its bound.
func noiseCheck(ctx context.Context, o options, names []string) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // workload/metric
	o.trace = 0
	for i := 0; i < o.repeat; i++ {
		for _, name := range names {
			res, err := spawn(ctx, o, name, io.Discard)
			if err != nil {
				return fmt.Errorf("repeat %d, %s: %w", i+1, name, err)
			}
			for _, d := range endToEnd {
				values[name+"/"+d.name] = append(values[name+"/"+d.name], res.Metrics[d.name].Value)
			}
			fmt.Printf("repeat %d/%d %s ok\n", i+1, o.repeat, name)
		}
	}
	var report []noiseMetric
	bad := 0
	for _, name := range names {
		for _, d := range endToEnd {
			vs := values[name+"/"+d.name]
			var odd, even []float64
			for i, v := range vs {
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			q1, q3 := quartiles(vs)
			m := noiseMetric{Workload: name, Metric: d.name, Unit: d.unit, Values: vs,
				Median: median(vs), Bound: bounds[d.name]}
			m.Spread = (q3 - q1) / m.Median
			if len(even) > 0 {
				m.Gap = math.Abs(median(odd)-median(even)) / m.Median
			}
			m.OK = m.Spread <= m.Bound && m.Gap <= m.Bound/2
			if !m.OK {
				bad++
			}
			m.IssueTarget = issueTarget(d.name)
			m.MeetsIssueTarget = m.Spread <= m.IssueTarget && m.Gap <= m.IssueTarget/2
			fmt.Printf("%-13s %-15s median %12.4f %-4s spread %5.1f%%  gap %5.1f%%  bound %4.1f%%  ok=%v  issue's %4.1f%% met=%v\n",
				name, d.name, m.Median, d.unit, 100*m.Spread, 100*m.Gap, 100*m.Bound, m.OK, 100*m.IssueTarget, m.MeetsIssueTarget)
			report = append(report, m)
		}
	}
	b, err := json.MarshalIndent(map[string]any{"repeats": o.repeat, "seed": o.seed,
		"seconds": o.seconds, "metrics": report}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("benchmark", "NOISE.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs do not repeat within their bound", bad)
	}
	return nil
}

// readBounds reads the end-to-end metrics' regression bounds from
// BENCHMARK.json, the one place they are fixed.
func readBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
