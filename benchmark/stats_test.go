package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must yield 0")
	}
}

func TestQuietQuartileIgnoresSlowSlices(t *testing.T) {
	// Half the run inside a slow episode of the host: the reported latency is
	// a quiet slice's, the reported rate likewise, and empty slices do not
	// count.
	slices := [][]float64{{9, 10, 11}, {500, 600, 700}, {10, 10, 10}, {}, {400, 500, 900}, {10, 11, 12}, {300, 450, 500}, {8, 10, 13}}
	per := perSlice(slices, median)
	if len(per) != 7 {
		t.Fatalf("%d per-slice values, want 7 (one slice is empty)", len(per))
	}
	if got := quietLow(per); got != 10 {
		t.Errorf("quietLow = %v, want 10", got)
	}
	if got := quietHigh([]float64{100, 101, 40, 99, 35, 100, 50, 102}); got < 100 || got > 101 {
		t.Errorf("quietHigh = %v, want a quiet slice's rate", got)
	}
	if quietLow(nil) != 0 {
		t.Error("no slices must yield 0")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 4) {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if got := relSpread(xs); !near(got, 1) {
		t.Errorf("relSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
