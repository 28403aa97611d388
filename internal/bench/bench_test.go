package bench

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// quick runs an experiment in quick mode and returns its result.
func quick(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := e.Run(Opts{Quick: true, Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || len(res.Rows) == 0 || len(res.Header) == 0 {
		t.Fatalf("%s: malformed result %+v", id, res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatalf("%s: empty rendering", id)
	}
	return res
}

// num parses the leading float out of a cell like "0.42s (63.1%)".
func num(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSpace(cell)
	end := 0
	for end < len(cell) && (cell[end] == '-' || cell[end] == '.' || (cell[end] >= '0' && cell[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(cell[:end], 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// TestRegistryComplete holds the registry to the golden's list exactly: every
// registered experiment is pinned by testdata/model_quick.golden, so one that
// is not deterministic cannot be registered unnoticed.
func TestRegistryComplete(t *testing.T) {
	want := slices.Clone(modelExperiments)
	slices.Sort(want)
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("registered experiments\n got: %v\nwant: %v", got, want)
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestTable5Shape(t *testing.T) {
	res := quick(t, "table5")
	// int row: EDS < LDS < EIS < LIS << NOS (columns 2..6).
	r := res.Rows[0]
	vals := []float64{num(t, r[2]), num(t, r[3]), num(t, r[4]), num(t, r[5]), num(t, r[6])}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Errorf("int lookup ordering broken: %v", vals)
		}
	}
	if vals[4] < 4*vals[0] {
		t.Errorf("NOS (%f) not ≫ EDS (%f)", vals[4], vals[0])
	}
}

func TestTable6Shape(t *testing.T) {
	res := quick(t, "table6")
	direct, indirect := res.Rows[0], res.Rows[1]
	// Direct: fi=0 expensive, grows with fan-in past fi=1.
	if !(num(t, direct[1]) > num(t, direct[2]) && num(t, direct[5]) > num(t, direct[2])) {
		t.Errorf("direct row shape: %v", direct)
	}
	// Indirect: flat for fi ≥ 1.
	if num(t, indirect[2]) != num(t, indirect[5]) {
		t.Errorf("indirect row not flat: %v", indirect)
	}
	if num(t, indirect[5]) >= num(t, direct[5]) {
		t.Error("indirect not cheaper than direct at high fan-in")
	}
}

func TestFig11Shape(t *testing.T) {
	res := quick(t, "fig11a")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// Direct (EDS/LDS) grows with fan-in; indirect (EIS/LIS) stays flat.
	if num(t, last[1]) <= num(t, first[1]) {
		t.Errorf("EDS update flat: %v vs %v", first, last)
	}
	if num(t, last[3]) != num(t, first[3]) {
		t.Errorf("EIS update grows: %v vs %v", first, last)
	}
	res = quick(t, "fig11b")
	row := res.Rows[0]
	if num(t, row[6]) <= num(t, row[2]) {
		t.Error("NOS int update not dearest")
	}
}

func TestTable7And8AndEq45(t *testing.T) {
	res := quick(t, "table7")
	if res.Rows[0][3] != "inf" || res.Rows[0][5] != "inf" {
		t.Errorf("NOS row lost its infinities: %v", res.Rows[0])
	}
	if num(t, res.Rows[4][1]) < 6 { // EDS vs NOS ≈ 6.5
		t.Errorf("EDS/NOS best case = %v", res.Rows[4][1])
	}
	res = quick(t, "table8")
	if res.Rows[0][0] != "NOS" || res.Rows[0][1] != "-" {
		t.Errorf("table8 diagonal: %v", res.Rows[0])
	}
	res = quick(t, "eq45")
	if v := num(t, res.Rows[0][1]); v < 2.3 || v > 2.6 {
		t.Errorf("Eq4 = %f", v)
	}
}

func TestFig12Shape(t *testing.T) {
	res := quick(t, "fig12")
	// With few lookups EDS is (much) worse than NOS; by the last row the
	// swizzling techniques have overtaken NOS (speedup > 1 noted in the
	// cell as (xN.NN)).
	first := res.Rows[0]
	if !strings.Contains(first[5], "x0.") && first[5] != "precluded" {
		t.Errorf("EDS at 10 lookups should lose badly: %q", first[5])
	}
	speedup := func(cellv string) float64 {
		x := strings.Index(cellv, "x")
		if x < 0 {
			t.Fatalf("cell %q lacks speedup", cellv)
		}
		return num(t, cellv[x+1:len(cellv)-1])
	}
	last := res.Rows[len(res.Rows)-1]
	// LIS and LDS overtake NOS as computation intensity grows (the
	// crossover of Fig. 12); in quick mode I/O still dilutes the tail, so
	// only the direction is asserted.
	for _, col := range []int{2, 4} {
		if sp := speedup(last[col]); sp <= 1.05 {
			t.Errorf("at max lookups, column %d speedup = %f ≤ 1.05", col, sp)
		}
	}
	// EDS recovers from its disastrous start.
	if first[5] != "precluded" && last[5] != "precluded" {
		if speedup(last[5]) <= speedup(first[5]) {
			t.Error("EDS did not catch up with more lookups")
		}
	}
}

func TestFig13Shape(t *testing.T) {
	res := quick(t, "fig13")
	byMode := map[string][][]string{}
	for _, row := range res.Rows {
		byMode[row[0]] = append(byMode[row[0]], row)
	}
	// Hot runs: swizzling saves substantially at the shallowest depth.
	hot := byMode["hot"][0]
	for col := 3; col <= 5; col++ {
		if !strings.Contains(hot[col], "(") {
			t.Fatalf("hot cell %q has no savings", hot[col])
		}
	}
	lisSave := parseSavings(t, hot[3])
	if lisSave < 0.2 {
		t.Errorf("hot LIS savings = %.2f, want substantial", lisSave)
	}
	// Warm runs: much smaller savings than hot (objects touched once per
	// walk; the paper even measures losses at its scale), and CTX pays
	// the fetch-call losses — strictly negative.
	warm := byMode["warm"][0]
	if s := parseSavings(t, warm[3]); s >= lisSave {
		t.Errorf("warm LIS savings %.2f not below hot %.2f", s, lisSave)
	}
	if s := parseSavings(t, warm[6]); s > 0 {
		t.Errorf("warm CTX savings = %.2f, should be negative (fetch calls)", s)
	}
	// Cold runs: differences small (I/O bound): |savings| < 15 %.
	cold := byMode["cold"][0]
	for col := 3; col <= 5; col++ {
		if s := parseSavings(t, cold[col]); s > 0.3 || s < -0.3 {
			t.Errorf("cold savings col %d = %.2f, should be I/O-bound small", col, s)
		}
	}
}

func parseSavings(t *testing.T, cellv string) float64 {
	t.Helper()
	o := strings.Index(cellv, "(")
	c := strings.Index(cellv, "%")
	if o < 0 || c < 0 || c <= o {
		t.Fatalf("cell %q has no savings", cellv)
	}
	return num(t, cellv[o+1:c]) / 100
}

func TestFig14Shape(t *testing.T) {
	res := quick(t, "fig14")
	// With many extra lookups TYP and CTX beat plain NOS.
	last := res.Rows[len(res.Rows)-1]
	if s := parseSavings(t, last[4]); s <= 0 {
		t.Errorf("TYP savings at max lookups = %.2f", s)
	}
	if s := parseSavings(t, last[5]); s <= 0 {
		t.Errorf("CTX savings at max lookups = %.2f", s)
	}
}

func TestFig15Shape(t *testing.T) {
	res := quick(t, "fig15")
	// Time grows with depth; swizzling saves at the deepest level.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if num(t, last[1]) <= num(t, first[1]) {
		t.Error("reverse traversal time not growing with depth")
	}
	if s := parseSavings(t, last[2]); s < 0.2 {
		t.Errorf("LIS reverse-traversal savings = %.2f", s)
	}
}

func TestTable9Shape(t *testing.T) {
	res := quick(t, "table9")
	row := res.Rows[0]
	nos := num(t, row[0])
	eis := num(t, row[2])
	lds := num(t, row[3])
	typ := num(t, row[4])
	ctx := num(t, row[5])
	if eis >= nos {
		t.Errorf("EIS update (%f) not cheaper than NOS (%f)", eis, nos)
	}
	if lds <= eis {
		t.Errorf("LDS update (%f) should lose to EIS (%f) — RRL maintenance", lds, eis)
	}
	if typ > eis*1.05 {
		t.Errorf("TYP (%f) should be at least on par with EIS (%f)", typ, eis)
	}
	if ctx > typ {
		t.Errorf("CTX (%f) should beat TYP (%f)", ctx, typ)
	}
}

func TestFig16Shape(t *testing.T) {
	res := quick(t, "fig16")
	// EIS savings shrink as the update share grows.
	first := parseSavings(t, res.Rows[0][2])
	last := parseSavings(t, res.Rows[len(res.Rows)-1][2])
	if last >= first {
		t.Errorf("EIS savings did not shrink with updates: %.2f → %.2f", first, last)
	}
	// TYP's savings grow with the update share (its strength is updates),
	// and CTX stays ahead of EIS throughout.
	typFirst := parseSavings(t, res.Rows[0][4])
	typLast := parseSavings(t, res.Rows[len(res.Rows)-1][4])
	if typLast <= typFirst {
		t.Errorf("TYP savings did not grow with updates: %.2f → %.2f", typFirst, typLast)
	}
	for _, row := range res.Rows {
		if ctx, eis := parseSavings(t, row[5]), parseSavings(t, row[2]); ctx < eis-0.02 {
			t.Errorf("CTX (%.2f) behind EIS (%.2f) at %s updates", ctx, eis, row[0])
		}
	}
}

func TestFig17Shape(t *testing.T) {
	res := quick(t, "fig17")
	// Hot-traversal savings improve with locality; reverse-traversal
	// savings positive throughout. Cells are bare percents.
	lo := num(t, strings.TrimSuffix(res.Rows[0][1], "%")) / 100
	hi := num(t, strings.TrimSuffix(res.Rows[len(res.Rows)-1][1], "%")) / 100
	if hi <= lo {
		t.Errorf("traversal savings not improving with locality: %.2f → %.2f", lo, hi)
	}
	for _, row := range res.Rows {
		if rev := num(t, strings.TrimSuffix(row[3], "%")) / 100; rev < 0.1 {
			t.Errorf("reverse savings at locality %s = %.2f", row[0], rev)
		}
	}
}

func TestFig18Shape(t *testing.T) {
	res := quick(t, "fig18")
	// Configuration A: the copy architecture faults less than the page
	// buffer and enables larger savings.
	a := res.Rows[0]
	if num(t, a[1]) > num(t, a[2]) {
		t.Errorf("config A: OC faults (%s) exceed PB faults (%s)", a[1], a[2])
	}
	ocSave := num(t, strings.TrimSuffix(a[3], "%")) / 100
	pbSave := num(t, strings.TrimSuffix(a[4], "%")) / 100
	if ocSave <= pbSave {
		t.Errorf("config A: OC savings %.2f not above PB savings %.2f", ocSave, pbSave)
	}
}

func TestFig19Shape(t *testing.T) {
	res := quick(t, "fig19")
	// PC clustering faults less than the (aged) type-based layout in
	// every configuration.
	for _, row := range res.Rows {
		if num(t, row[2]) >= num(t, row[1]) {
			t.Errorf("config %s: PC faults (%s) not below Ty faults (%s)", row[0], row[2], row[1])
		}
	}
}

func TestFig20AndStorage(t *testing.T) {
	res := quick(t, "fig20")
	found := map[string]bool{}
	for _, row := range res.Rows {
		found[row[0]] = true
	}
	for _, g := range []string{"Connection.to", "Connection.from", "Part.connTo"} {
		if !found[g] {
			t.Errorf("granule %s missing from swizzling graph", g)
		}
	}
	if len(res.Notes) < 3 {
		t.Error("fig20 notes missing recommendation")
	}
	res = quick(t, "storage")
	if len(res.Rows) < 5 {
		t.Errorf("storage rows = %d", len(res.Rows))
	}
}

func TestAblations(t *testing.T) {
	res := quick(t, "ablation-discovery")
	// Upon discovery, the hot run re-swizzles (almost) nothing — every
	// field was swizzled in the warm-up. Upon dereference, inter-object
	// references never get swizzled, so every variable dereference pays a
	// fresh swizzle, forever (§3.2.1's "a great deal of potential is
	// lost").
	disc := num(t, res.Rows[0][2])
	deref := num(t, res.Rows[1][2])
	if deref <= disc {
		t.Errorf("upon-dereference swizzles (%f) should exceed discovery's steady state (%f)", deref, disc)
	}
	if num(t, res.Rows[1][1]) <= num(t, res.Rows[0][1]) {
		t.Error("upon-dereference not slower than upon-discovery on the hot run")
	}
	res = quick(t, "ablation-snowball")
	unbounded := num(t, res.Rows[0][1])
	bounded := num(t, res.Rows[1][1])
	if bounded >= unbounded {
		t.Errorf("bounded snowball loaded %f ≥ unbounded %f", bounded, unbounded)
	}
	res = quick(t, "ablation-rrl-blocks")
	if num(t, res.Rows[0][1]) >= num(t, res.Rows[1][1]) {
		t.Error("block allocation did not reduce allocations")
	}
	res = quick(t, "ablation-desc-reclaim")
	reclaimed := num(t, res.Rows[0][1])
	retained := num(t, res.Rows[1][1])
	if reclaimed >= retained {
		t.Errorf("reclaiming kept %f descriptors ≥ retention %f", reclaimed, retained)
	}
	res = quick(t, "ablation-pagewise-rrl")
	preciseBytes := num(t, res.Rows[0][2])
	pagewiseBytes := num(t, res.Rows[1][2])
	if pagewiseBytes >= preciseBytes {
		t.Errorf("pagewise bytes %f not below precise %f", pagewiseBytes, preciseBytes)
	}
	// Both modes must find the same references to unswizzle.
	if num(t, res.Rows[0][3]) != num(t, res.Rows[1][3]) {
		t.Errorf("unswizzle counts differ: %s vs %s", res.Rows[0][3], res.Rows[1][3])
	}
	res = quick(t, "ablation-swizzle-table")
	if num(t, res.Rows[0][2]) != 0 {
		t.Error("RRL mode rejected swizzles")
	}
	if num(t, res.Rows[1][2]) == 0 {
		t.Error("smallest table rejected nothing")
	}
	if occ, cap := num(t, res.Rows[1][3]), 16.0; occ > cap {
		t.Errorf("table occupancy %f over capacity %f", occ, cap)
	}
}
