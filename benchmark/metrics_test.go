package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTheCode keeps ../BENCHMARK.json and the tables
// the program reports from in step, and inside the limits the acceptance
// driver refuses a file for.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(raw, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract fixes 6", len(keys))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q does not match the code (or why > 200 chars)", i, w.Name, w.Why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || !unit.MatchString(g.Unit) {
				t.Errorf("%s[%d]: %+v does not match %+v", kind, i, g, w)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != bounds[g.Name] || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, the code says %v (limit 0.25)", g.Name, g.Bound, bounds[g.Name])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Unit != "s" || doc.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range doc.EndToEnd {
		if *m.Bound > *doc.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", doc.Paths)
	}
}

// TestMovesNameDeclaredMetrics: every row of moves.json names a per-layer
// metric, an end-to-end metric (or one of the e2e.* aliases) and workloads
// that exist.
func TestMovesNameDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("moves.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Moves []struct {
			Layer    string   `json:"layer_metric"`
			E2E      string   `json:"e2e_metric"`
			Workload string   `json:"workload"`
			FlatOn   []string `json:"predicted_flat_on"`
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	layer, e2e := map[string]bool{}, map[string]bool{}
	for _, d := range perLayer {
		layer[d.name] = true
	}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	if len(doc.Moves) == 0 {
		t.Fatal("moves.json has no rows")
	}
	for i, mv := range doc.Moves {
		if !layer[mv.Layer] {
			t.Errorf("row %d: %q is not a per-layer metric", i, mv.Layer)
		}
		if !e2e[mv.E2E] && !(layer[mv.E2E] && len(mv.E2E) > 4 && mv.E2E[:4] == "e2e.") {
			t.Errorf("row %d: %q is not an end-to-end metric", i, mv.E2E)
		}
		for _, w := range append([]string{mv.Workload}, mv.FlatOn...) {
			if findWorkload(w) == nil {
				t.Errorf("row %d: unknown workload %q", i, w)
			}
		}
	}
}
