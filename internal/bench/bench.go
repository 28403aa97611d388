// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5–§6) from this reproduction, printing
// the same rows/series the paper reports. Absolute numbers come from the
// simulated cost meter (calibrated with the paper's constants), so the
// comparisons — who wins, by what factor, where the crossovers fall — are
// directly comparable to the original. The package reads no clock and opens
// no socket (arch_test.go checks its imports); wall-clock counterparts live
// in the repository's testing.B benchmarks and in the end-to-end benchmark
// module under benchmark/.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Opts configures an experiment run.
type Opts struct {
	// Quick shrinks object bases and depths so the whole suite runs in
	// seconds (used by tests and -quick); the default is paper scale.
	Quick bool
	// Seed drives generators and operation streams.
	Seed int64
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Opts) (*Result, error)
}

var registry []Experiment

func register(id, title string, run func(Opts) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// Print renders a result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Cell returns a value in a compact table representation.
func cell(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsNaN(v):
		return "-"
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// pct formats a savings percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// savings is the paper's metric: (NOS − alternative) / NOS (§6.3 fn. 4).
func savings(nos, alt float64) float64 {
	if nos == 0 {
		return 0
	}
	return (nos - alt) / nos
}
