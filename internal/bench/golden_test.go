package bench

import (
	"bytes"
	"os"
	"testing"
)

// modelExperiments are the 24 deterministic experiments that reproduce the
// paper from the simulated cost meter alone (no wall clock, no goroutines),
// in the order testdata/model_quick.golden lists them.
var modelExperiments = []string{
	"ablation-pagewise-rrl", "ablation-swizzle-table", "ablation-discovery",
	"ablation-snowball", "ablation-rrl-blocks", "ablation-desc-reclaim",
	"fig11a", "fig11b", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"fig18", "fig19", "fig20",
	"table5", "table6", "table7", "table8", "table9", "eq45", "storage",
}

// TestModelExperimentsGolden holds the printed rows of the model experiments
// to the file generated at commit 4699b5a, byte for byte: a change to the
// object manager's hot path may move wall-clock time, never a modelled
// charge. Regenerate (only with a change that means to move the model) with
//
//	oo1bench -quick -exp <the ids above, comma-separated> | grep -v '^  (.* in .*)$'
func TestModelExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/model_quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, id := range modelExperiments {
		quick(t, id).Print(&got)
		got.WriteByte('\n') // where oo1bench prints the stripped timing line's blank
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("model output differs from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("model output has %d lines, the golden %d", len(gl), len(wl))
}
