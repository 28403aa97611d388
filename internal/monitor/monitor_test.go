package monitor

import (
	"testing"

	"gom/internal/core"
	"gom/internal/costmodel"
	"gom/internal/oo1"
	"gom/internal/swizzle"
)

// fixture: a small OO1 base with a client whose trace feeds the monitor.
func setup(t *testing.T, nParts int) (*oo1.DB, *oo1.Client, *Trace, *StorageResolver) {
	t.Helper()
	cfg := oo1.DefaultConfig()
	cfg.NumParts = nParts
	db, err := oo1.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := oo1.NewClient(db, core.Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	c.OM.SetAccessRecorder(tr)
	// Training mode runs under no-swizzling (§7.1).
	c.Begin(swizzle.NewSpec("training", swizzle.NOS))
	return db, c, tr, NewStorageResolver(db.Srv, db.Schema)
}

func TestTraceRecords(t *testing.T) {
	_, c, tr, _ := setup(t, 200)
	if err := c.LookupN(5); err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 20 { // entry loads + extent reads + x, y, type per lookup
		t.Errorf("trace has %d records", tr.Len())
	}
	var entries, xReads int
	for _, rec := range tr.Records {
		if rec.ID.IsNil() || rec.Write {
			t.Fatalf("bad record %+v", rec)
		}
		switch rec.Attr {
		case "":
			entries++
		case "x":
			xReads++
		}
	}
	if entries == 0 || xReads != 5 {
		t.Errorf("entries = %d, x reads = %d (want >0, 5)", entries, xReads)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestAnalyzeGraphWeights(t *testing.T) {
	_, c, tr, res := setup(t, 300)
	if _, err := c.Traversal(3); err != nil {
		t.Fatal(err)
	}
	g := Analyze(tr, res, 50)
	if g.Objects == 0 || g.Faults < g.Objects {
		t.Fatalf("objects=%d faults=%d", g.Objects, g.Faults)
	}
	if g.PageFaults == 0 {
		t.Error("no simulated page faults")
	}
	// The traversal dereferences Part.connTo and Connection.to, never
	// Connection.from.
	byKey := map[GranuleKey]GranuleStats{}
	for _, gs := range g.Granules {
		byKey[gs.Key] = gs
	}
	connTo := byKey[GranuleKey{HomeType: "Part", Attr: "connTo"}]
	to := byKey[GranuleKey{HomeType: "Connection", Attr: "to"}]
	from := byKey[GranuleKey{HomeType: "Connection", Attr: "from"}]
	if connTo.L == 0 || to.L == 0 {
		t.Errorf("deref weights: connTo %.0f, to %.0f", connTo.L, to.L)
	}
	if from.L != 0 || from.MLazy != 0 {
		t.Errorf("from has l=%.0f m(lazy)=%.0f although never read", from.L, from.MLazy)
	}
	// Eager would swizzle from-references of every faulted connection.
	if from.MEager == 0 {
		t.Error("from has no m(eager) weight")
	}
	// p of to is high (read almost every time a connection is resident);
	// p of from is zero.
	if to.P < 0.5 {
		t.Errorf("p(to) = %.2f", to.P)
	}
	if from.P != 0 {
		t.Errorf("p(from) = %.2f", from.P)
	}
	// No updates in a traversal.
	if connTo.U != 0 || to.U != 0 {
		t.Error("update weights on a read-only trace")
	}
	// Scalar reads were attributed (x, y, type of visited parts).
	if to.LInt == 0 {
		t.Error("no scalar lookups attributed to Connection.to")
	}
}

func TestAnalyzeUpdatesCounted(t *testing.T) {
	_, c, tr, res := setup(t, 300)
	for i := 0; i < 20; i++ {
		if err := c.UpdateOp(); err != nil {
			t.Fatal(err)
		}
	}
	g := Analyze(tr, res, 100)
	var toU float64
	for _, gs := range g.Granules {
		if gs.Key == (GranuleKey{HomeType: "Connection", Attr: "to"}) {
			toU = gs.U
		}
	}
	// 20 ops × 2 swaps × 2 writes = 80 redirections of to-fields.
	if toU != 80 {
		t.Errorf("u(Connection.to) = %.0f, want 80", toU)
	}
}

func TestFaultWeightsUnderTinyBuffer(t *testing.T) {
	// With a 1-page simulated buffer, every part access on another page
	// re-faults (Fig. 20b's weights arise from a 2-page simulation).
	_, c, tr, res := setup(t, 300)
	if err := c.LookupN(50); err != nil {
		t.Fatal(err)
	}
	gTiny := Analyze(tr, res, 1)
	gBig := Analyze(tr, res, 10000)
	if gTiny.Faults <= gBig.Faults {
		t.Errorf("faults: tiny %d, big %d", gTiny.Faults, gBig.Faults)
	}
	if gTiny.PageFaults <= gBig.PageFaults {
		t.Errorf("page faults: tiny %d, big %d", gTiny.PageFaults, gBig.PageFaults)
	}
}

func TestChooseHotProfileRecommendsSwizzling(t *testing.T) {
	db, c, tr, res := setup(t, 300)
	// Hot profile: repeat the same traversal thrice — references are
	// dereferenced repeatedly, swizzling pays (§6.3).
	for run := 0; run < 3; run++ {
		c.Reseed(5)
		if _, err := c.Traversal(4); err != nil {
			t.Fatal(err)
		}
	}
	g := Analyze(tr, res, 1000)
	rec := Choose(costmodel.Default(), g, res.SampleFanIn(1))
	if rec.Spec == nil {
		t.Fatal("no spec")
	}
	if rec.ApplicationStrategy == swizzle.NOS {
		t.Errorf("hot profile recommends NOS (cost app %.0f type %.0f ctx %.0f)",
			rec.CostApplication, rec.CostType, rec.CostContext)
	}
	_ = db
}

func TestChooseBrowseProfileRecommendsNoSwizzling(t *testing.T) {
	// Browse profile: the §5.1.2 worst case for swizzling — every
	// reference dereferenced exactly once. Touch each part once through a
	// fresh variable and read one field (the §7.1 example's conclusion is
	// NOS in application-specific mode).
	db, c, tr, res := setup(t, 1500)
	v := c.OM.NewVar("browse", db.Part)
	for _, id := range db.Parts {
		if err := c.OM.Load(v, id); err != nil {
			t.Fatal(err)
		}
		if _, err := c.OM.ReadInt(v, "x"); err != nil {
			t.Fatal(err)
		}
	}
	g := Analyze(tr, res, 1000)
	rec := Choose(costmodel.Default(), g, res.SampleFanIn(1))
	if rec.Granularity != swizzle.GranApplication {
		t.Errorf("browse profile granularity = %v (costs app %.0f type %.0f ctx %.0f)",
			rec.Granularity, rec.CostApplication, rec.CostType, rec.CostContext)
	}
	if rec.ApplicationStrategy != swizzle.NOS {
		t.Errorf("browse profile strategy = %v", rec.ApplicationStrategy)
	}
}

func TestChooseMixedProfilePrefersFinerGranularity(t *testing.T) {
	// The §5.2.2 dilemma, handcrafted: one granule is extremely hot
	// (dereferenced thousands of times — direct swizzling wins big),
	// another is update-heavy at high fan-in (direct swizzling loses —
	// NOS/indirect wins). No single application-wide strategy is good at
	// both; the finer granularities resolve it despite the fetch-call
	// overhead.
	g := &Graph{
		Objects: 50, Faults: 60,
		Granules: []GranuleStats{
			{Key: GranuleKey{HomeType: "Conn", Attr: "to"}, Target: "Part",
				L: 20000, LInt: 60000, MLazy: 40, MEager: 40},
			{Key: GranuleKey{HomeType: "Doc", Attr: "rev"}, Target: "Rev",
				U: 8000, MLazy: 3000, MEager: 3000},
		},
	}
	fanIn := map[string]float64{"Part": 2, "Rev": 30}
	rec := Choose(costmodel.Default(), g, fanIn)
	if rec.Granularity == swizzle.GranApplication {
		t.Errorf("dilemma profile stayed application-specific (app %.0f type %.0f ctx %.0f)",
			rec.CostApplication, rec.CostType, rec.CostContext)
	}
	if st := rec.PerContext[GranuleKey{HomeType: "Conn", Attr: "to"}]; !st.Direct() {
		t.Errorf("hot granule got %v, want a direct strategy", st)
	}
	if st := rec.PerContext[GranuleKey{HomeType: "Doc", Attr: "rev"}]; st.Direct() {
		t.Errorf("high-fan-in update granule got %v, want non-direct", st)
	}
	// The winning spec must resolve accordingly.
	if rec.CostType > rec.CostApplication && rec.CostContext > rec.CostApplication {
		t.Error("finer granularities cost more than application-specific")
	}
}

func TestChooseNeverReadGranuleNotEager(t *testing.T) {
	// Connection.from is never read by a forward traversal: its granule
	// must not be eagerly swizzled.
	_, c, tr, res := setup(t, 300)
	if _, err := c.TraversalWithLookups(4, 60); err != nil {
		t.Fatal(err)
	}
	g := Analyze(tr, res, 1000)
	rec := Choose(costmodel.Default(), g, res.SampleFanIn(1))
	if st, ok := rec.PerContext[GranuleKey{HomeType: "Connection", Attr: "from"}]; ok && st.Eager() {
		t.Errorf("never-read granule got %v", st)
	}
}

func TestReconsiderEDSKeepsUsefulDowngradesHarmful(t *testing.T) {
	_, c, tr, res := setup(t, 400)
	for run := 0; run < 2; run++ {
		c.Reseed(5)
		if _, err := c.Traversal(3); err != nil {
			t.Fatal(err)
		}
	}
	g := Analyze(tr, res, 1000)
	model := costmodel.Default()
	rec := Choose(model, g, res.SampleFanIn(1))
	fanIn := res.SampleFanIn(1)

	mkSpec := func() *swizzle.Spec {
		// EDS on the traversal path (to, connTo — targets used
		// immediately, eager loading only moves faults earlier) and on
		// from (never dereferenced: pure snowball ballast).
		return swizzle.NewSpec("eds", swizzle.LDS).
			WithContext("Connection", "to", swizzle.EDS).
			WithContext("Connection", "from", swizzle.EDS).
			WithContext("Part", "connTo", swizzle.EDS)
	}

	// Plenty of buffer: to-targets are always read right after their
	// connection, and from-targets are the already-resident parents —
	// neither causes additional I/O, so both are kept ("preloading can be
	// a desired effect", §3.2.2). connTo is the restrictive case the
	// algorithm catches: the leaf-level connections of the traversal are
	// never read in the baseline, so eager loading them touches pages the
	// application never needed — downgraded.
	rec.Spec = mkSpec()
	okSpec := ReconsiderEDS(model, rec, g, tr, res, 100000, fanIn)
	if st := okSpec.Contexts["Connection.to"]; st != swizzle.EDS {
		t.Errorf("large buffer downgraded Connection.to to %v", st)
	}
	if st := okSpec.Contexts["Connection.from"]; st != swizzle.EDS {
		t.Errorf("large buffer downgraded Connection.from to %v", st)
	}
	if st := okSpec.Contexts["Part.connTo"]; st != swizzle.LDS {
		t.Errorf("large buffer kept %v for connTo despite leaf-level snowball", st)
	}

	// One-page buffer: eagerly loading the from-parts now displaces the
	// page the next record needs → extra faults → downgraded.
	rec.Spec = mkSpec()
	tight := ReconsiderEDS(model, rec, g, tr, res, 1, fanIn)
	if st := tight.Contexts["Connection.from"]; st != swizzle.LDS {
		t.Errorf("tight buffer kept %v for the never-used from granule", st)
	}
}

// TestRecommendationRunsFaster closes the loop: run an application in
// training mode, recommend, and verify that re-running under the
// recommended spec costs less simulated time than under training NOS.
func TestRecommendationRunsFaster(t *testing.T) {
	db, c, tr, res := setup(t, 300)
	for run := 0; run < 3; run++ {
		c.Reseed(5)
		if _, err := c.Traversal(4); err != nil {
			t.Fatal(err)
		}
	}
	trainCost := c.OM.Meter().Micros()
	g := Analyze(tr, res, 1000)
	rec := Choose(costmodel.Default(), g, res.SampleFanIn(1))

	c2, err := oo1.NewClient(db, core.Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	c2.Begin(rec.Spec)
	for run := 0; run < 3; run++ {
		c2.Reseed(5)
		if _, err := c2.Traversal(4); err != nil {
			t.Fatal(err)
		}
	}
	tunedCost := c2.OM.Meter().Micros()
	if tunedCost >= trainCost {
		t.Errorf("tuned run (%.0fµs, spec %v) not faster than training NOS (%.0fµs)",
			tunedCost, rec.Spec, trainCost)
	}
	if err := c2.OM.Verify(); err != nil {
		t.Fatal(err)
	}
}
