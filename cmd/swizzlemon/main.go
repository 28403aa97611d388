// Command swizzlemon runs the paper's §7 pipeline end to end: execute a
// workload in training mode (no-swizzling) under monitoring, build the
// swizzling graph, recommend a strategy and adjustment granularity from
// the cost model, apply the greedy eager-direct reconsideration, and
// report the measured improvement of re-running under the recommendation.
//
// Usage:
//
//	swizzlemon -workload traversal -parts 2000 -depth 4 -repeat 3
//	swizzlemon -workload lookups -ops 2000
//	swizzlemon -workload updates -ops 500
//	swizzlemon -workload mix -ops 1000
//	swizzlemon -workload traversal -static    # decapsulation (§7.3.2): no training run
//
// The advise subcommand is the online counterpart: run a workload under
// a deliberately installed strategy and let the always-on scoreboard +
// advisor (no trace, no training run) report whether the cost model
// would now choose differently:
//
//	swizzlemon advise -workload traversal -strategy NOS
//
// The health subcommand watches a running `gomcli serve -debug` server:
// it scrapes /healthz for the watchdog verdict and /debug/metrics for
// the commit-pipeline phase breakdown:
//
//	swizzlemon health -addr 127.0.0.1:7071
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"gom/internal/advisor"
	"gom/internal/core"
	"gom/internal/costmodel"
	"gom/internal/metrics"
	"gom/internal/monitor"
	"gom/internal/oo1"
	"gom/internal/swizzle"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "advise" {
		if err := runAdvise(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "swizzlemon:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "health" {
		if err := runHealth(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "swizzlemon:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "traversal", "traversal|lookups|updates|mix")
		parts    = flag.Int("parts", 2000, "OO1 parts")
		depth    = flag.Int("depth", 4, "traversal depth")
		repeat   = flag.Int("repeat", 3, "workload repetitions (hot profiles)")
		ops      = flag.Int("ops", 1000, "operation count for lookups/updates/mix")
		pages    = flag.Int("pages", 1000, "page buffer frames")
		seed     = flag.Int64("seed", 7, "seed")
		static   = flag.Bool("static", false, "use decapsulation (static path profiles + sampling) instead of a training run")
	)
	flag.Parse()

	if err := run(*workload, *parts, *depth, *repeat, *ops, *pages, *seed, *static); err != nil {
		fmt.Fprintln(os.Stderr, "swizzlemon:", err)
		os.Exit(1)
	}
}

func run(workload string, parts, depth, repeat, ops, pages int, seed int64, static bool) error {
	cfg := oo1.DefaultConfig().Scaled(parts)
	cfg.Seed = seed
	fmt.Printf("generating %v ...\n", cfg)
	db, err := oo1.Generate(cfg)
	if err != nil {
		return err
	}
	if static {
		return runStatic(db, workload, depth, repeat, ops, pages, seed)
	}

	// drive runs the workload, printing live observability deltas after
	// every repetition (the always-on metrics layer, not the §7 monitor).
	drive := func(c *oo1.Client) error {
		reg := c.OM.Metrics()
		prev := reg.Snapshot()
		for r := 0; r < repeat; r++ {
			c.Reseed(seed)
			if err := runWorkload(c, workload, depth, ops); err != nil {
				return err
			}
			cur, d := c.OM.Metrics().DeltaSince(prev)
			fmt.Printf("  rep %d: %s\n", r+1, d)
			prev = cur
		}
		return nil
	}

	// Training run under NOS with the monitor attached (§7.1).
	reg := metrics.New()
	c, err := oo1.NewClient(db, core.Options{PageBufferPages: pages, Metrics: reg}, seed)
	if err != nil {
		return err
	}
	db.Srv.SetMetrics(reg)
	trace := monitor.NewTrace()
	c.OM.SetAccessRecorder(trace)
	c.Begin(swizzle.NewSpec("training", swizzle.NOS))
	if err := drive(c); err != nil {
		return err
	}
	trainCost := c.OM.Meter().Micros()
	fmt.Printf("training (NOS): %.1f ms simulated, %d trace records\n", trainCost/1000, trace.Len())
	printObsSnapshot("training", c.OM.Metrics().Snapshot())

	// Analysis: swizzling graph + cost-model decision + greedy EDS pass.
	res := monitor.NewStorageResolver(db.Srv, db.Schema)
	graph := monitor.Analyze(trace, res, pages)
	fanIn := res.SampleFanIn(1)
	model := costmodel.Default()
	rec := monitor.Choose(model, graph, fanIn)

	fmt.Printf("\nswizzling graph: %d objects, %d object faults, %d simulated page faults\n",
		graph.Objects, graph.Faults, graph.PageFaults)
	fmt.Printf("%-28s %-12s %8s %8s %8s %10s %10s\n",
		"granule", "target", "l", "u", "p", "m(lazy)", "m(eager)")
	for _, g := range graph.Granules {
		fmt.Printf("%-28s %-12s %8.0f %8.0f %8.2f %10.0f %10.0f\n",
			g.Key.HomeType+"."+g.Key.Attr, g.Target, g.L, g.U, g.P, g.MLazy, g.MEager)
	}
	fmt.Printf("%-28s %-12s %8.0f %8.0f %8s %10.0f %10.0f\n",
		"$entry (variables)", "-", graph.EntryLInt, graph.EntryUInt, "-", graph.EntryLoads, graph.EntryLoads)

	fmt.Printf("\nmodeled costs (µs): application %.0f · type %.0f · context %.0f\n",
		rec.CostApplication, rec.CostType, rec.CostContext)
	fmt.Printf("recommendation: %v granularity\n", rec.Granularity)
	spec := monitor.ReconsiderEDS(model, rec, graph, trace, res, pages, fanIn)
	fmt.Printf("specification after greedy EDS pass: %v\n", spec)
	for _, tname := range sortedKeys(spec.Types) {
		fmt.Printf("  type %-24s -> %v\n", tname, spec.Types[tname])
	}
	for _, ctx := range sortedKeys(spec.Contexts) {
		fmt.Printf("  context %-21s -> %v\n", ctx, spec.Contexts[ctx])
	}

	// Validation: re-run the identical workload under the recommendation,
	// with a fresh registry so the two runs' live counts are comparable.
	reg2 := metrics.New()
	c2, err := oo1.NewClient(db, core.Options{PageBufferPages: pages, Metrics: reg2}, seed)
	if err != nil {
		return err
	}
	db.Srv.SetMetrics(reg2)
	c2.Begin(spec)
	if err := drive(c2); err != nil {
		return err
	}
	tuned := c2.OM.Meter().Micros()
	fmt.Printf("\ntuned run: %.1f ms simulated (training %.1f ms) — savings %.1f%%\n",
		tuned/1000, trainCost/1000, (trainCost-tuned)/trainCost*100)
	printObsSnapshot("tuned", c2.OM.Metrics().Snapshot())
	return nil
}

// runStatic is the §7.3.2 alternative: no training run — path expressions
// describing the workload, expanded over a sample of the object base.
func runStatic(db *oo1.DB, workload string, depth, repeat, ops, pages int, seed int64) error {
	res := monitor.NewStorageResolver(db.Srv, db.Schema)
	var paths []monitor.PathExpr
	switch workload {
	case "traversal":
		evals := 1.0
		for i := 0; i < depth; i++ {
			evals *= 3
		}
		paths = []monitor.PathExpr{{
			Root: "Part", Fields: []string{"connTo", "to"},
			Freq: float64(repeat) * evals / 3, Repeat: float64(repeat + 1), ScalarReads: 3,
		}}
	case "lookups":
		paths = []monitor.PathExpr{{
			Root: "Part", Freq: float64(ops * repeat),
			Repeat: float64(repeat), ScalarReads: 3,
		}}
	case "updates", "mix":
		paths = []monitor.PathExpr{{
			Root: "Connection", Fields: []string{"to"},
			Freq: float64(ops * repeat * 4), Repeat: 2,
			RefWrites: 1,
		}}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	graph, err := monitor.Decapsulate(res, paths)
	if err != nil {
		return err
	}
	model := costmodel.Default()
	rec := monitor.Choose(model, graph, res.SampleFanIn(1))
	fmt.Printf("decapsulated profile: %d estimated objects, %d granules\n",
		graph.Objects, len(graph.Granules))
	fmt.Printf("modeled costs (µs): application %.0f · type %.0f · context %.0f\n",
		rec.CostApplication, rec.CostType, rec.CostContext)
	fmt.Printf("recommendation: %v granularity, %v\n", rec.Granularity, rec.Spec)
	for _, ctx := range sortedKeys(rec.Spec.Contexts) {
		fmt.Printf("  context %-24s -> %v\n", ctx, rec.Spec.Contexts[ctx])
	}
	for _, tname := range sortedKeys(rec.Spec.Types) {
		fmt.Printf("  type    %-24s -> %v\n", tname, rec.Spec.Types[tname])
	}
	_ = pages
	_ = seed
	return nil
}

// runWorkload executes one repetition of the named workload.
func runWorkload(c *oo1.Client, workload string, depth, ops int) error {
	switch workload {
	case "traversal":
		_, err := c.Traversal(depth)
		return err
	case "lookups":
		return c.LookupN(ops)
	case "updates":
		for i := 0; i < ops; i++ {
			if err := c.UpdateOp(); err != nil {
				return err
			}
		}
		return nil
	case "mix":
		return c.UpdateLookupMix(ops, ops/5)
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
}

// printObsSnapshot prints the always-on observability counters, plus a
// line for each layer that saw activity.
func printObsSnapshot(label string, s metrics.Snapshot) {
	fmt.Printf("observability (%s): object_faults=%d page_faults=%d rot_lookups=%d "+
		"swizzles{EDS/EIS/LDS/LIS}=%d/%d/%d/%d buffer hit/miss/evict=%d/%d/%d displacements=%d\n",
		label,
		s.Count(metrics.CtrObjectFault), s.Count(metrics.CtrPageFault),
		s.Count(metrics.CtrROTLookup),
		s.Count(metrics.CtrSwizzleEDS), s.Count(metrics.CtrSwizzleEIS),
		s.Count(metrics.CtrSwizzleLDS), s.Count(metrics.CtrSwizzleLIS),
		s.Count(metrics.CtrBufferHit), s.Count(metrics.CtrBufferMiss),
		s.Count(metrics.CtrBufferEvict), s.Count(metrics.CtrDisplacement))
	if zc := s.Count(metrics.CtrPageZeroCopyHit); zc > 0 {
		fmt.Printf("  read path (%s): zero_copy_hits=%d page_dir_extents=%d\n",
			label, zc, s.Count(metrics.CtrPageDirExtents))
	}
	if local, rpc := s.Count(metrics.CtrObjectFaultLocal), s.Count(metrics.CtrObjectFaultRPC); local+rpc > 0 {
		fmt.Printf("  fault resolution (%s): from buffered pages=%d by rpc=%d\n", label, local, rpc)
	}
	if s.Gauges[metrics.GaugeVersionPages] != 0 || s.GaugePeaks[metrics.GaugeVersionPages] != 0 {
		fmt.Printf("  version store (%s): pages=%d (peak %d) bytes=%d (peak %d) snapshot_lag=%d\n",
			label,
			s.Gauges[metrics.GaugeVersionPages], s.GaugePeaks[metrics.GaugeVersionPages],
			s.Gauges[metrics.GaugeVersionBytes], s.GaugePeaks[metrics.GaugeVersionBytes],
			s.Gauges[metrics.GaugeSnapshotLag])
	}
	if bs := s.Hists[metrics.HistWALBatchSize]; bs.Count > 0 {
		fl := s.Hists[metrics.HistWALFlushLatency]
		fmt.Printf("  wal (%s): %d group flushes, batch p50=%d p99=%d, flush p50=%v p99=%v\n",
			label, bs.Count, int64(bs.Quantile(0.50)), int64(bs.Quantile(0.99)),
			fl.Quantile(0.50), fl.Quantile(0.99))
	}
}

// commitPhaseHists are the commit-pipeline stage histograms rendered by
// the health subcommand's phase breakdown, in pipeline order.
var commitPhaseHists = []metrics.Hist{
	metrics.HistPhaseEnqueueWait,
	metrics.HistPhaseLinger,
	metrics.HistPhaseAppend,
	metrics.HistPhaseFsync,
	metrics.HistPhasePublish,
	metrics.HistPhaseLockRelease,
}

// runHealth scrapes a serve -debug endpoint: the watchdog verdict from
// /healthz (a 503 is a report, not a scrape failure) and the commit
// phase breakdown from /debug/metrics.
func runHealth(argv []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	addr := fs.String("addr", "", "debug address of a running server (host:port)")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("health: need -addr")
	}
	cl := &http.Client{Timeout: 5 * time.Second}

	hz, status, err := fetch(cl, "http://"+*addr+"/healthz")
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusServiceUnavailable {
		return fmt.Errorf("health: /healthz returned HTTP %d", status)
	}
	var verdict struct {
		Status        string `json:"status"`
		CheckedUnixNS int64  `json:"checked_unix_ns"`
		Checks        []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			Detail string `json:"detail"`
		} `json:"checks"`
	}
	if err := json.Unmarshal(hz, &verdict); err != nil {
		return fmt.Errorf("health: bad JSON from /healthz: %w", err)
	}
	fmt.Printf("health: %s (checked %v ago)\n", verdict.Status,
		time.Since(time.Unix(0, verdict.CheckedUnixNS)).Round(time.Millisecond))
	for _, c := range verdict.Checks {
		fmt.Printf("  %-16s %-10s %s\n", c.Name, c.Status, c.Detail)
	}

	mj, status, err := fetch(cl, "http://"+*addr+"/debug/metrics")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("health: /debug/metrics returned HTTP %d", status)
	}
	var snap struct {
		Hists map[string]struct {
			Count       int64  `json:"count"`
			MeanNS      int64  `json:"mean_ns"`
			P50NS       int64  `json:"p50_ns"`
			P99NS       int64  `json:"p99_ns"`
			TailTraceID uint64 `json:"tail_trace_id"`
		} `json:"hists"`
	}
	if err := json.Unmarshal(mj, &snap); err != nil {
		return fmt.Errorf("health: bad JSON from /debug/metrics: %w", err)
	}
	e2e, haveE2E := snap.Hists[metrics.HistCommitE2E.String()]
	if !haveE2E || e2e.Count == 0 {
		fmt.Println("commit pipeline: no durable commits observed")
		return nil
	}
	fmt.Printf("commit pipeline: %d durable commits, e2e p50=%v p99=%v",
		e2e.Count, time.Duration(e2e.P50NS), time.Duration(e2e.P99NS))
	if e2e.TailTraceID != 0 {
		fmt.Printf(" (tail trace %d)", e2e.TailTraceID)
	}
	fmt.Println()
	for _, h := range commitPhaseHists {
		ph, ok := snap.Hists[h.String()]
		if !ok || ph.Count == 0 {
			continue
		}
		fmt.Printf("  %-24s %10d   mean %-10v p50 %-10v p99 %v\n",
			h.String(), ph.Count,
			time.Duration(ph.MeanNS).Round(100*time.Nanosecond),
			time.Duration(ph.P50NS), time.Duration(ph.P99NS))
	}
	return nil
}

// fetch GETs url and returns the body and HTTP status (an error only
// for transport failures — non-200 statuses are the caller's call).
func fetch(cl *http.Client, url string) ([]byte, int, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}

// runAdvise is the online pipeline: no monitor, no training run. The
// workload executes under a deliberately installed strategy while the
// always-on scoreboard counts per-context events; the advisor then folds
// those counters through the cost model and reports any drift between
// the installed strategy and what the observed workload would choose.
func runAdvise(argv []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	var (
		workload = fs.String("workload", "traversal", "traversal|lookups|updates|mix")
		parts    = fs.Int("parts", 2000, "OO1 parts")
		depth    = fs.Int("depth", 4, "traversal depth")
		repeat   = fs.Int("repeat", 3, "workload repetitions (hot profiles)")
		ops      = fs.Int("ops", 1000, "operation count for lookups/updates/mix")
		pages    = fs.Int("pages", 1000, "page buffer frames")
		seed     = fs.Int64("seed", 7, "seed")
		strategy = fs.String("strategy", "NOS", "deliberately installed strategy (NOS|LIS|EIS|LDS|EDS)")
		minRatio = fs.Float64("min-ratio", 0, "smallest installed/best cost ratio worth reporting (0 = default)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	st, ok := strategyNamed(*strategy)
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	cfg := oo1.DefaultConfig().Scaled(*parts)
	cfg.Seed = *seed
	fmt.Printf("generating %v ...\n", cfg)
	db, err := oo1.Generate(cfg)
	if err != nil {
		return err
	}
	reg := metrics.New()
	c, err := oo1.NewClient(db, core.Options{PageBufferPages: *pages, Metrics: reg}, *seed)
	if err != nil {
		return err
	}
	db.Srv.SetMetrics(reg)
	c.Begin(swizzle.NewSpec("advise", st))
	for r := 0; r < *repeat; r++ {
		c.Reseed(*seed)
		if err := runWorkload(c, *workload, *depth, *ops); err != nil {
			return err
		}
	}
	fmt.Printf("ran %q x%d under %v: %.1f ms simulated\n",
		*workload, *repeat, st, c.OM.Meter().Micros()/1000)
	printObsSnapshot("advise", c.OM.Metrics().Snapshot())

	fmt.Println("\nscoreboard (per-context, always-on):")
	for _, row := range reg.ScoreRows() {
		fmt.Printf("  %-24s %-12s %-4s %v\n", row.Context, row.Type, row.Strategy, row.Events)
	}

	adv := advisor.New(reg, advisor.Config{MinRatio: *minRatio})
	adv.Install() // publish through /debug/metrics and /metrics too
	fmt.Println()
	fmt.Print(advisor.Report(adv.Analyze()))
	return nil
}

// strategyNamed resolves a strategy abbreviation (NOS, EDS, ...).
func strategyNamed(name string) (swizzle.Strategy, bool) {
	for _, st := range swizzle.Strategies {
		if st.String() == name {
			return st, true
		}
	}
	return swizzle.NOS, false
}

// sortedKeys returns the map's keys in sorted order, so reports are
// stable run to run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
