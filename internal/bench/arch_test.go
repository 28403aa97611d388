package bench

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// modelImports are the repository packages the model experiments build on:
// the object manager, its swizzling strategies and buffers, the OO1 base, the
// simulated cost meter and the monitor. Nothing that serves, stores or
// measures wall-clock time.
var modelImports = map[string]bool{
	"gom/internal/buffer":    true,
	"gom/internal/core":      true,
	"gom/internal/costmodel": true,
	"gom/internal/monitor":   true,
	"gom/internal/oo1":       true,
	"gom/internal/sim":       true,
	"gom/internal/swizzle":   true,
}

// forbiddenStd are the standard-library trees through which an experiment
// could read a clock, a socket or the file system, race goroutines or draw
// unseeded randomness — any of which would make its rows differ between runs.
var forbiddenStd = []string{"time", "sync", "os", "net", "math/rand"}

// TestModelImportsOnly makes "the experiments are deterministic" a checked
// property: every non-test file imports only the model packages above and
// the standard library outside forbiddenStd.
func TestModelImportsOnly(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if reason := forbiddenImport(path); reason != "" {
				t.Errorf("%s imports %s: %s", name, path, reason)
			}
		}
	}
}

// forbiddenImport says why path may not be imported, or "" if it may.
func forbiddenImport(path string) string {
	if path == "gom" || strings.HasPrefix(path, "gom/") {
		if !modelImports[path] {
			return "not one of the model packages"
		}
		return ""
	}
	if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
		return "not in the standard library"
	}
	for _, f := range forbiddenStd {
		if path == f || strings.HasPrefix(path, f+"/") {
			return "not deterministic"
		}
	}
	return ""
}
