// Adaptive tuning: the §7 feedback loop as a library user would run it —
// train an application under monitoring, let the cost model choose the
// swizzling specification, and re-run under the recommendation.
//
//	go run ./examples/adaptive_tuning
package main

import (
	"fmt"
	"log"

	"gom/internal/core"
	"gom/internal/costmodel"
	"gom/internal/monitor"
	"gom/internal/oo1"
	"gom/internal/swizzle"
)

// workload is the application being tuned: an operation mix that leans on
// repeated traversals with extra lookups (hot Parts) plus some updates —
// a profile where no single application-wide strategy is ideal.
func workload(c *oo1.Client) error {
	for round := 0; round < 3; round++ {
		c.Reseed(5)
		if _, err := c.TraversalWithLookups(3, 20); err != nil {
			return err
		}
		for i := 0; i < 25; i++ {
			if err := c.UpdateOp(); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	db, err := oo1.Generate(oo1.DefaultConfig().Scaled(1500))
	if err != nil {
		log.Fatal(err)
	}

	// 1. Training run: no-swizzling, monitor attached.
	trainee, err := oo1.NewClient(db, core.Options{}, 5)
	if err != nil {
		log.Fatal(err)
	}
	trace := monitor.NewTrace()
	trainee.OM.SetAccessRecorder(trace)
	trainee.Begin(swizzle.NewSpec("training", swizzle.NOS))
	if err := workload(trainee); err != nil {
		log.Fatal(err)
	}
	baseline := trainee.OM.Meter().Micros()
	fmt.Printf("training run (NOS): %.1f ms simulated, %d trace records\n",
		baseline/1000, trace.Len())

	// 2. Analysis: swizzling graph from the trace + a 1000-page buffer
	// simulation, fan-ins sampled from the object base.
	res := monitor.NewStorageResolver(db.Srv, db.Schema)
	graph := monitor.Analyze(trace, res, 1000)
	fanIn := res.SampleFanIn(1)
	model := costmodel.Default()
	rec := monitor.Choose(model, graph, fanIn)
	fmt.Printf("modeled: application %.0f µs · type %.0f µs · context %.0f µs → %v granularity\n",
		rec.CostApplication, rec.CostType, rec.CostContext, rec.Granularity)

	// 3. Greedy reconsideration of eager-direct granules (§7.2).
	spec := monitor.ReconsiderEDS(model, rec, graph, trace, res, 1000, fanIn)
	fmt.Printf("chosen specification: %v\n", spec)

	// 4. Validation run under the recommendation, same operation stream.
	tuned, err := oo1.NewClient(db, core.Options{}, 5)
	if err != nil {
		log.Fatal(err)
	}
	tuned.Begin(spec)
	if err := workload(tuned); err != nil {
		log.Fatal(err)
	}
	cost := tuned.OM.Meter().Micros()
	fmt.Printf("tuned run: %.1f ms simulated — %.1f%% savings over training\n",
		cost/1000, (baseline-cost)/baseline*100)

	// 5. And the counterfactuals, to show the adaptable choice is sound.
	for _, st := range []swizzle.Strategy{swizzle.LIS, swizzle.EIS, swizzle.LDS} {
		alt, err := oo1.NewClient(db, core.Options{}, 5)
		if err != nil {
			log.Fatal(err)
		}
		alt.Begin(swizzle.NewSpec(st.String(), st))
		if err := workload(alt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  counterfactual %v everywhere: %.1f ms\n",
			st, alt.OM.Meter().Micros()/1000)
	}
	if err := tuned.OM.Verify(); err != nil {
		log.Fatal(err)
	}
}
