package main

import (
	"fmt"
	"os"
)

// bounds is the share of the parent's median by which each end-to-end
// metric may get worse before a change counts as a regression; the same
// numbers as in BENCHMARK.json (metrics_test.go keeps them in step).
var bounds = map[string]float64{
	"setup_s":          0.25,
	"primary_p50_us":   0.25,
	"secondary_p50_us": 0.25,
	"ops_per_s":        0.25,
	"live_heap_mb":     0.10,
}

// runRepeat runs the untraced workloads n times with seeds seed, seed+1, …
// and prints, per workload × end-to-end metric, the median, the quartiles
// and the relative spread (Q3 − Q1) ÷ median. It fails when a spread other
// than set-up's exceeds the metric's bound, or when any operation failed.
func runRepeat(todo []*workload, seed int64, seconds float64, n int) error {
	bad := 0
	for _, wl := range todo {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := runOne(wl, numParts, seed+int64(i), seconds, false, "")
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: output check failed: %s", wl.name, rep.Seed, rep.CheckErr)
			}
			if rep.Failed > 0 {
				fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d operations failed\n", wl.name, rep.Seed, rep.Failed, rep.Attempted)
				bad++
			}
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], rep.Metrics[d.name])
			}
		}
		fmt.Printf("%s (%d runs of %gs, seeds %d..%d)\n", wl.name, n, seconds, seed, seed+int64(n)-1)
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "Q1", "median", "Q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.name])
			spread, verdict := relSpread(values[d.name]), ""
			if d.name != "setup_s" && spread > bounds[d.name] {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("  %-18s %12.3f %12.3f %12.3f %7.2f%% %5.0f%%%s\n",
				d.name, q1, q2, q3, 100*spread, 100*bounds[d.name], verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d spreads over their bound or runs with failed operations", bad)
	}
	return nil
}
