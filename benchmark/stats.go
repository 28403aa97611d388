package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perSlice reduces each slice's samples to one value with f (a median,
// say). Slices without samples are skipped.
func perSlice(slices [][]float64, f func([]float64) float64) []float64 {
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, f(s))
		}
	}
	return per
}

// quietShare is the noise control every end-to-end timing uses. A window is
// cut into slices of about a second, each slice gives one value, and the reported
// number is the value a quarter of the way up from the best slice: the 25th
// percentile of the per-slice latencies, the 75th of the per-slice rates.
//
// The median over slices was not enough. This host has a slow mode, lasting
// from seconds to a minute, in which the same code runs 1.5 to 2.4 times
// slower on every layer; a run half inside one reported the slow mode, and
// the acceptance driver saw the same code 38 % apart. Interference only ever
// adds time, so the quiet slices are the program's own speed, and a change
// that makes the program slower moves them like every other slice. A quarter,
// not the single best slice, because the first slices of a run are cheaper
// than the rest (few objects are resident yet) and must not be the ones read.
const quietShare = 0.25

func quietLow(xs []float64) float64  { return percentile(xs, quietShare) }
func quietHigh(xs []float64) float64 { return percentile(xs, 1-quietShare) }

// quartiles returns Q1, Q2, Q3 with the exclusive method of Python's
// statistics.quantiles(values, n=4), which is what the acceptance driver
// computes spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// relSpread is (Q3 − Q1) ÷ median, the run-to-run spread the bounds in
// BENCHMARK.json are judged against.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
