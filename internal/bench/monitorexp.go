package bench

import (
	"fmt"

	"gom/internal/core"
	"gom/internal/costmodel"
	"gom/internal/monitor"
	"gom/internal/oo1"
	"gom/internal/swizzle"
)

func init() {
	register("fig20", "Swizzling graph from a trace and strategy recommendation (§7)", runFig20)
	register("storage", "Storage overhead of descriptors and RRLs (§5.3)", runStorage)
}

// runFig20 reproduces the §7.1 example: an application is run in training
// mode (no-swizzling) under monitoring; the trace plus a 2-page simulated
// LRU buffer produce the swizzling graph's cumulative weights; the cost
// model then recommends strategy and granularity, and the greedy §7.2
// algorithm reconsiders eager-direct granules.
func runFig20(o Opts) (*Result, error) {
	cfg := stdConfig(o, 400, 200)
	db, err := cachedDB(cfg)
	if err != nil {
		return nil, err
	}
	c, err := oo1.NewClient(db, core.Options{}, o.Seed)
	if err != nil {
		return nil, err
	}
	tr := monitor.NewTrace()
	c.OM.SetAccessRecorder(tr)
	c.Begin(swizzle.NewSpec("training", swizzle.NOS))
	// The Fig. 20 example traces a Traversal of depth 1; repeat it a few
	// times so the profile shows re-referencing.
	for run := 0; run < 3; run++ {
		c.Reseed(o.Seed)
		if _, err := c.Traversal(1); err != nil {
			return nil, err
		}
	}
	res := &Result{
		ID: "fig20", Title: "Swizzling graph weights (2-page simulated buffer) and recommendation",
		Header: []string{"granule", "target", "l", "u", "p", "m(lazy)", "m(eager)"},
	}
	resv := monitor.NewStorageResolver(db.Srv, db.Schema)
	g := monitor.Analyze(tr, resv, 2)
	for _, gs := range g.Granules {
		res.Rows = append(res.Rows, []string{
			gs.Key.HomeType + "." + gs.Key.Attr, gs.Target,
			cell(gs.L), cell(gs.U), cell(gs.P), cell(gs.MLazy), cell(gs.MEager),
		})
	}
	res.Rows = append(res.Rows, []string{"$entry (variables)", "-",
		cell(g.EntryLInt), cell(g.EntryUInt), "-", cell(g.EntryLoads), cell(g.EntryLoads)})

	fanIn := resv.SampleFanIn(1)
	rec := monitor.Choose(costmodel.Default(), g, fanIn)
	res.Notes = append(res.Notes,
		fmt.Sprintf("objects accessed o = %d, object faults = %d, simulated page faults = %d",
			g.Objects, g.Faults, g.PageFaults),
		fmt.Sprintf("modeled costs: application %.0f µs, type %.0f µs, context %.0f µs",
			rec.CostApplication, rec.CostType, rec.CostContext),
		fmt.Sprintf("recommendation: %v granularity, %v", rec.Granularity, rec.Spec))
	final := monitor.ReconsiderEDS(costmodel.Default(), rec, g, tr, resv, 2, fanIn)
	res.Notes = append(res.Notes,
		fmt.Sprintf("after greedy EDS reconsideration (§7.2, 2-page buffer): %v", final))
	return res, nil
}

// runStorage reproduces the §5.3 storage-overhead analysis: modeled
// descriptor/RRL fractions plus the live structures measured after a hot
// traversal under EIS and LDS.
func runStorage(o Opts) (*Result, error) {
	cfg := stdConfig(o, 2000, 400)
	db, err := cachedDB(cfg)
	if err != nil {
		return nil, err
	}
	depth := 5
	if o.Quick {
		depth = 3
	}
	res := &Result{
		ID: "storage", Title: "Swizzling storage overhead (§5.3)",
		Header: []string{"quantity", "value"},
	}
	// Measured: EIS — descriptors.
	cl, err := oo1.NewClient(db, core.Options{}, o.Seed)
	if err != nil {
		return nil, err
	}
	cl.Begin(specFor(swizzle.EIS))
	if _, err := cl.Traversal(depth); err != nil {
		return nil, err
	}
	descBytes := costmodel.DescriptorOverheadBytes(cl.OM.DescriptorCount())
	res.Rows = append(res.Rows,
		[]string{"EIS hot traversal: descriptors", fmt.Sprintf("%d (%d bytes)", cl.OM.DescriptorCount(), descBytes)},
		[]string{"EIS hot traversal: resident objects", fmt.Sprintf("%d", cl.OM.Resident())},
	)
	// Measured: LDS — RRLs.
	cl2, err := oo1.NewClient(db, core.Options{}, o.Seed)
	if err != nil {
		return nil, err
	}
	cl2.Begin(specFor(swizzle.LDS))
	if _, err := cl2.Traversal(depth); err != nil {
		return nil, err
	}
	entries, blocks := cl2.OM.RRLStats()
	res.Rows = append(res.Rows,
		[]string{"LDS hot traversal: RRL entries / blocks", fmt.Sprintf("%d / %d", entries, blocks)},
		[]string{"LDS RRL bytes (blocks × 10 × 12)", fmt.Sprintf("%d", blocks*costmodel.RRLBlockEntries*costmodel.RRLEntrySize)},
	)
	// Modeled: the paper's 43 % figure for the OO1 structures.
	res.Rows = append(res.Rows,
		[]string{"modeled descriptor overhead (OO1 avg object)", pct(costmodel.OverheadFraction(56, 1, false))},
		[]string{"modeled RRL overhead (OO1 avg object, fan-in 4)", pct(costmodel.OverheadFraction(280, 4, true))},
	)
	res.Notes = append(res.Notes,
		"paper (§5.3): for the OO1 structures, 43 % of main memory must be invested per descriptor",
		"or RRL — OO1 is the worst case (small objects, dense references); RRLs can be swapped out,",
		"descriptors are hot spots")
	return res, nil
}
