// Command oo1bench regenerates the paper's tables and figures from this
// reproduction (see DESIGN.md for the experiment index).
//
// Usage:
//
//	oo1bench                 # run every experiment at paper scale
//	oo1bench -exp table5     # run one experiment
//	oo1bench -exp fig13,fig14
//	oo1bench -list           # list experiment ids
//	oo1bench -quick          # shrunken object bases (seconds, CI-friendly)
//
// Every experiment is a deterministic model run; the end-to-end systems
// benchmark, with its traces, is benchmark/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gom/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		quick = flag.Bool("quick", false, "run with shrunken object bases")
		seed  = flag.Int64("seed", 42, "generator and workload seed")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	var todo []bench.Experiment
	if *exp == "" {
		todo = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "oo1bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	opts := bench.Opts{Quick: *quick, Seed: *seed}
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oo1bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		fmt.Printf("  (%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
