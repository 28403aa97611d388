// Command benchmark is the repository's end-to-end benchmark: OO1
// transactions over real TCP against the full stack (object manager, ROT,
// buffer pool, v2 wire, transactional page server, WAL with group commit
// and fsync, MVCC versions, cache coherence), with a per-layer budget from
// a separate traced run. See README.md.
//
// The acceptance driver runs
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the JSON object on the last line of standard output. Without
// --workload the whole suite runs, traced and untraced, and every metric
// is printed by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times one invocation builds the stack to report a
// median set-up time; the last build is the one measured on.
const setupRuns = 3

// report is the outcome of one invocation on one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// InputHash fingerprints the first generated operations of every lane:
	// equal seeds must give equal hashes.
	InputHash []string `json:"input_hash"`
	// Samples is the number of operations per kind behind the latencies.
	Samples  map[string]int `json:"samples"`
	CheckErr string         `json:"check_error,omitempty"`
}

// setUp builds the stack for a workload and warms it, runs times, and
// returns the last one with the median duration.
func setUp(wl *workload, parts int, seed int64, flush bool, runs int) (*stack, []*segment, time.Duration, error) {
	var durs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		st, err := newStack(parts, seed, wl.buffers, flush)
		if err != nil {
			return nil, nil, 0, err
		}
		segs := wl.plan(st, seed)
		if err := warmUp(segs); err != nil {
			st.close()
			return nil, nil, 0, err
		}
		durs = append(durs, float64(time.Since(t0)))
		if i == runs-1 {
			return st, segs, time.Duration(median(durs)), nil
		}
		st.close()
	}
}

// runOne measures one workload once. Untraced, it reports the end-to-end
// metrics of one window of the given seconds. Traced, it reports the
// per-layer metrics from two systems built from the same seed — the same
// inputs from the same state, both with fsync on (see newStack) — that run
// half the seconds each: the first untraced as the reference, the second
// with the recorder and the program's tracers on, its spans written to
// traceOut when that is set. Two systems, not two windows on one: an object
// manager keeps what it has touched and its commit is O(resident objects),
// so a second window on the same system is slower than the first whether
// it is traced or not (it read as 40-46 % tracing overhead on oo1_mix).
func runOne(wl *workload, parts int, seed int64, seconds float64, traced bool, traceOut string) (*report, error) {
	rep := &report{Workload: wl.name, Seed: seed, Seconds: seconds, Traced: traced, Correct: true, Samples: map[string]int{}}
	dur := time.Duration(seconds * float64(time.Second))

	if !traced {
		st, segs, setup, err := setUp(wl, parts, seed, false, setupRuns)
		if err != nil {
			return nil, err
		}
		defer st.close()
		w, err := runWindow(st, segs, dur, 0)
		if err != nil {
			return nil, err
		}
		// Live heap with the stack and its clients still up, less the
		// driver's own per-operation results: their slices double as they
		// grow, which made the metric jump by a megabyte with the
		// operation count.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.Metrics = endToEndMetrics(wl, w, setup, ms.HeapAlloc-w.resultBytes())
		rep.account(st, segs, w)
		return rep, nil
	}

	ref, refSegs, _, err := setUp(wl, parts, seed, true, 1)
	if err != nil {
		return nil, err
	}
	base, err := runWindow(ref, refSegs, dur/2, 0)
	if err == nil {
		rep.account(ref, refSegs, base)
	}
	ref.close()
	if err != nil {
		return nil, err
	}

	st, segs, _, err := setUp(wl, parts, seed, true, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.setTraced(true)
	tr, err := runWindow(st, segs, dur/2, 0)
	st.setTraced(false)
	if err != nil {
		return nil, err
	}
	rep.Metrics = layerMetrics(st, base, tr)
	if traceOut != "" {
		if err := writeTrace(traceOut, st); err != nil {
			return nil, err
		}
	}
	rep.account(st, segs, tr)
	return rep, nil
}

// account adds one measured window to the report and checks the outputs of
// the system it ran on, which must still be up.
func (rep *report) account(st *stack, segs []*segment, w *windowResult) {
	t := w.totals()
	rep.Attempted += t.attempted
	rep.Failed += t.failed + t.wrong
	w.each(func(_ *segResult, _ int, r *opResult) { rep.Samples[kindNames[r.kind]]++ })
	rep.InputHash = nil
	for _, s := range segs {
		for _, l := range s.lanes {
			rep.InputHash = append(rep.InputHash, fmt.Sprintf("%016x", l.hash))
		}
	}
	if err := checkOutputs(st, w); err != nil {
		rep.Correct = false
		rep.CheckErr = err.Error()
	}
}

// driverLine is the one JSON object the acceptance driver reads.
func driverLine(rep *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{rep.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": ms,
	})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}

func printReport(w io.Writer, rep *report) {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	mode := "end-to-end, tracing off"
	if rep.Traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s seed %d (%s): %d attempted, %d failed, correct=%v\n",
		rep.Workload, rep.Seed, mode, rep.Attempted, rep.Failed, rep.Correct)
	kinds := make([]string, 0, len(rep.Samples))
	for k := range rep.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "   samples %-14s %d\n", k, rep.Samples[k])
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", d.name, rep.Metrics[d.name], d.unit)
	}
	if rep.CheckErr != "" {
		fmt.Fprintf(w, "   OUTPUT CHECK FAILED: %s\n", rep.CheckErr)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
		seed         = flag.Int64("seed", 1, "seed of the generated base and of every operation stream")
		seconds      = flag.Float64("seconds", 10, "seconds measured per run")
		trace        = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: tracing off, end-to-end metrics")
		out          = flag.String("out", "", "write the reports as JSON to this file; a traced run also writes <out>.<workload>.trace.json (Chrome trace_event)")
		repeat       = flag.Int("repeat", 0, "run the untraced suite this many times with different seeds and judge the spreads against the bounds")
	)
	flag.Parse()
	// One thread runs Go code at a time. With two, every RPC hands work
	// between the two virtual CPUs of this shared host, and the hypervisor's
	// wake-up latency is then both most of a round trip and most of the noise:
	// shift_traverse ran 6.1 ms ± 8 % per traversal on two Ps and 3.3 ms ± 2.6 %
	// on one. Blocking system calls (fsync) still get their own thread.
	runtime.GOMAXPROCS(1)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(*workloadName, *seed, *seconds, *trace != 0, *out, *repeat); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, out string, repeat int) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	todo := workloads
	if name != "" {
		wl := findWorkload(name)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []*workload{wl}
	}
	if repeat > 0 {
		return runRepeat(todo, seed, seconds, repeat)
	}

	// The driver reads the last line of standard output, so with
	// --workload everything for people goes to standard error.
	var human io.Writer = os.Stdout
	if name != "" {
		human = os.Stderr
	}
	var reports []*report
	failed := false
	one := func(wl *workload, traced bool) error {
		traceOut := ""
		if traced && out != "" {
			traceOut = fmt.Sprintf("%s.%s.trace.json", out, wl.name)
		}
		rep, err := runOne(wl, numParts, seed, seconds, traced, traceOut)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printReport(human, rep)
		reports = append(reports, rep)
		failed = failed || !rep.Correct
		return nil
	}
	for _, wl := range todo {
		if name == "" || !traced {
			if err := one(wl, false); err != nil {
				return err
			}
		}
		if name == "" || traced {
			if err := one(wl, true); err != nil {
				return err
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "reports": reports,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if name != "" {
		fmt.Println(driverLine(reports[0]))
	}
	if failed {
		return fmt.Errorf("output check failed")
	}
	return nil
}

func writeTrace(path string, st *stack) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
