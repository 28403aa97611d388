package core

import (
	"testing"

	"gom/internal/metrics"
	"gom/internal/sim"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// TestStrategyMetricsSemantics ties the observability counters to the
// strategy semantics of the cost model (Table 5): no-swizzling pays a ROT
// lookup on every dereference, direct strategies pay nothing once the
// reference is swizzled, and indirect strategies pay exactly one
// descriptor indirection per dereference.
func TestStrategyMetricsSemantics(t *testing.T) {
	const derefs = 10
	cases := []struct {
		strat       swizzle.Strategy
		rotPerDeref int64
		indPerDeref int64
	}{
		{swizzle.NOS, 1, 0},
		{swizzle.EDS, 0, 0},
		{swizzle.EIS, 0, 1},
		{swizzle.LDS, 0, 0},
		{swizzle.LIS, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.strat.String(), func(t *testing.T) {
			b := buildBase(t, 10)
			reg := metrics.New()
			om := b.om(t, Options{Metrics: reg})
			om.BeginApplication(appSpec(tc.strat))
			v := om.NewVar("p", b.part)
			if err := om.Load(v, b.parts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(v, "x"); err != nil {
				t.Fatal(err) // warm up: object fault plus any swizzling
			}
			warm := om.Metrics().Snapshot()
			for i := 0; i < derefs; i++ {
				if _, err := om.ReadInt(v, "x"); err != nil {
					t.Fatal(err)
				}
			}
			d := om.Metrics().Snapshot().Delta(warm)
			if got, want := d.Count(metrics.CtrROTLookup), tc.rotPerDeref*derefs; got != want {
				t.Errorf("steady-state rot_lookup = %d, want %d", got, want)
			}
			if got, want := d.Count(metrics.CtrDescriptorIndirection), tc.indPerDeref*derefs; got != want {
				t.Errorf("steady-state descriptor_indirection = %d, want %d", got, want)
			}
			if got, want := d.Count(metrics.CtrRead), int64(derefs); got != want {
				t.Errorf("read = %d, want %d", got, want)
			}

			// The swizzle counters must name the active strategy and only it.
			total := reg.Snapshot()
			var swizzled int64
			for _, c := range []metrics.Counter{
				metrics.CtrSwizzleEDS, metrics.CtrSwizzleEIS,
				metrics.CtrSwizzleLDS, metrics.CtrSwizzleLIS,
			} {
				swizzled += total.Count(c)
			}
			if tc.strat == swizzle.NOS {
				if swizzled != 0 {
					t.Errorf("NOS recorded %d swizzles", swizzled)
				}
			} else {
				own := total.Count(swizzleCounter(tc.strat))
				if own == 0 {
					t.Errorf("no swizzle{%v} events recorded", tc.strat)
				}
				if own != swizzled {
					t.Errorf("swizzle{%v} = %d but total swizzles = %d; foreign strategy counted", tc.strat, own, swizzled)
				}
			}
			mustVerify(t, om)
		})
	}
}

// TestMetricsCountObjectFaults checks the fault counters against a known
// workload: loading and reading n distinct cold parts faults each exactly
// once, and a second pass faults none.
func TestMetricsCountObjectFaults(t *testing.T) {
	const n = 8
	b := buildBase(t, n)
	reg := metrics.New()
	om := b.om(t, Options{Metrics: reg})
	om.BeginApplication(appSpec(swizzle.LDS))
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = om.NewVar("p", b.part)
		if err := om.Load(vars[i], b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := om.ReadInt(vars[i], "part-id"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Count(metrics.CtrObjectFault); got != n {
		t.Errorf("object_fault = %d, want %d", got, n)
	}
	for i := range vars {
		if _, err := om.ReadInt(vars[i], "part-id"); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Delta(snap).Count(metrics.CtrObjectFault); got != 0 {
		t.Errorf("resident re-reads faulted %d times", got)
	}
}

// TestDerefZeroAlloc pins the hot-path contract of the observability
// layer: a steady-state field read allocates nothing — both with no
// registry installed (nil-receiver no-ops) and with one recording.
func TestDerefZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *metrics.Registry
	}{
		{"NoMetrics", nil},
		{"WithMetrics", metrics.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := buildBase(t, 10)
			om := b.om(t, Options{Metrics: tc.reg})
			om.BeginApplication(appSpec(swizzle.EDS))
			v := om.NewVar("p", b.part)
			if err := om.Load(v, b.parts[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(v, "x"); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := om.ReadInt(v, "x"); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state ReadInt allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestDerefScoreboardZeroAlloc extends the zero-alloc contract to the
// full always-on stack: per-context scoreboard counting plus a live but
// unsampled span tracer. The head-sampling decision and the scoreboard
// increments must not heap-allocate on the hot path.
func TestDerefScoreboardZeroAlloc(t *testing.T) {
	b := buildBase(t, 10)
	// A huge sampling rate keeps every benchmark-loop root unsampled
	// while still exercising the live sampling branch.
	om := b.om(t, Options{Metrics: metrics.New()})
	om.SetTrace(trace.New(1<<30, 64))
	om.BeginApplication(appSpec(swizzle.EDS))
	v := om.NewVar("p", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := om.ReadInt(v, "x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("deref with scoreboard + unsampled tracing allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDerefNoMetrics measures the steady-state dereference path with
// no registry installed; BenchmarkDerefWithMetrics is the same workload
// with every hook live. Comparing them bounds the cost of the always-on
// layer (the nil path must stay within a few percent).
// BenchmarkDerefScoreboard adds the per-context scoreboard and an
// installed-but-unsampled tracer — the "always-on" production shape.
func BenchmarkDerefNoMetrics(b *testing.B)   { benchDeref(b, nil, nil) }
func BenchmarkDerefWithMetrics(b *testing.B) { benchDeref(b, metrics.New(), nil) }
func BenchmarkDerefScoreboard(b *testing.B) {
	benchDeref(b, metrics.New(), trace.New(1<<30, 64))
}

func benchDeref(b *testing.B, reg *metrics.Registry, tr *trace.Tracer) {
	base := buildBase(b, 10)
	om := base.om(b, Options{Metrics: reg})
	om.SetTrace(tr)
	om.BeginApplication(appSpec(swizzle.EDS))
	v := om.NewVar("p", base.part)
	if err := om.Load(v, base.parts[0]); err != nil {
		b.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := om.ReadInt(v, "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// hotVisit builds an object manager as benchmark/stack.go does (registry
// installed; tr may add a tracer), loads a root part and returns one
// traversal visit over a resident working set — two NewVars, ReadElem,
// ReadRef, three field reads, two FreeVars — with the first visit, which
// faults and swizzles, already made.
func hotVisit(tb testing.TB, strat swizzle.Strategy, tr *trace.Tracer) (*OM, func()) {
	b := buildBase(tb, 10)
	om := b.om(tb, Options{Metrics: metrics.New()})
	om.SetTrace(tr)
	om.BeginApplication(appSpec(strat))
	p := om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[0]); err != nil {
		tb.Fatal(err)
	}
	visit := func() {
		cv, pv := om.NewVar("tconn", b.conn), om.NewVar("tpart", b.part)
		err := om.ReadElem(p, "connTo", 0, cv)
		if err == nil {
			err = om.ReadRef(cv, "to", pv)
		}
		if err == nil {
			_, err = om.ReadInt(pv, "x")
		}
		if err == nil {
			_, err = om.ReadInt(pv, "y")
		}
		if err == nil {
			_, err = om.ReadStr(pv, "type")
		}
		om.FreeVar(pv)
		om.FreeVar(cv)
		if err != nil {
			tb.Fatal(err)
		}
	}
	visit()
	return om, visit
}

// TestVisitAllocs pins what one traversal visit may allocate with the
// always-on stack installed (scoreboard and an unsampled tracer), under the
// strategies the benchmark's workloads run: none. The two variables come
// out of a slab (one allocation per 32 visits), their contexts out of the
// table NewVar resolved them into once. This is the per-layer metric
// core.allocs_per_visit.
func TestVisitAllocs(t *testing.T) {
	for _, strat := range []swizzle.Strategy{swizzle.EDS, swizzle.NOS, swizzle.LIS} {
		_, visit := hotVisit(t, strat, trace.New(1<<30, 64))
		if allocs := testing.AllocsPerRun(400, visit); allocs >= 0.1 {
			t.Errorf("%v: a traversal visit allocates %.2f objects, want < 0.1 (slab refills)", strat, allocs)
		}
	}
}

// TestVisitTouchesNoTable: a resident visit under direct swizzling is a
// pointer chase. It runs here with the manager's buffer pool and resident
// object table taken away, so a single Pool.Pin or ROT probe on the way —
// the structural path's withPinned made three of each per reference read —
// is a nil dereference.
func TestVisitTouchesNoTable(t *testing.T) {
	for _, strat := range []swizzle.Strategy{swizzle.EDS, swizzle.LDS} {
		om, visit := hotVisit(t, strat, nil)
		before := om.Meter().Snapshot()
		pool, table := om.pool, om.rot
		om.pool, om.rot = nil, nil
		func() {
			defer func() {
				om.pool, om.rot = pool, table
				if r := recover(); r != nil {
					t.Errorf("%v: a resident visit reached the pool or the ROT: %v", strat, r)
				}
			}()
			for i := 0; i < 10; i++ {
				visit()
			}
		}()
		d := om.Meter().Since(before)
		if d.Count(sim.CntLookupRef) != 20 || d.Count(sim.CntLookupInt) != 30 || d.Count(sim.CntObjectFault) != 0 {
			t.Errorf("%v: ten visits charged %v", strat, d)
		}
		mustVerify(t, om)
	}
}

// BenchmarkHotVisit is the traversal visit of TestVisitAllocs under every
// strategy: what a resident dereference costs.
func BenchmarkHotVisit(b *testing.B) {
	for _, strat := range []swizzle.Strategy{swizzle.EDS, swizzle.LDS, swizzle.EIS, swizzle.LIS, swizzle.NOS} {
		b.Run(strat.String(), func(b *testing.B) {
			_, visit := hotVisit(b, strat, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visit()
			}
		})
	}
}

// TestNewVarFollowsSpec: what NewVar caches per (name, type) is dropped
// when the spec changes, and only then — a variable declared under the
// next application resolves, and is labelled on the scoreboard, by the
// spec that is active.
func TestNewVarFollowsSpec(t *testing.T) {
	b := buildBase(t, 10)
	reg := metrics.New()
	om := b.om(t, Options{Metrics: reg})
	label := func() string {
		for _, row := range reg.ScoreRows() {
			if row.Context == "$p" {
				return row.Strategy
			}
		}
		return ""
	}
	for _, step := range []struct {
		spec *swizzle.Spec
		want swizzle.Strategy
	}{
		{appSpec(swizzle.EDS), swizzle.EDS},
		{appSpec(swizzle.EDS), swizzle.EDS}, // equal spec, other pointer
		{appSpec(swizzle.EDS).WithVar("p", swizzle.LIS), swizzle.LIS},
		{appSpec(swizzle.NOS).WithType("Part", swizzle.EIS), swizzle.EIS},
		{appSpec(swizzle.NOS), swizzle.NOS},
	} {
		om.BeginApplication(step.spec)
		for i := 0; i < 2; i++ { // resolved, then cached
			v := om.NewVar("p", b.part)
			if v.Strategy() != step.want || label() != step.want.String() {
				t.Errorf("%v: variable resolves %v, labelled %q, want %v", step.spec, v.Strategy(), label(), step.want)
			}
			if err := om.Load(v, b.parts[0]); err != nil {
				t.Fatal(err)
			}
		}
		if err := om.Commit(); err != nil {
			t.Fatal(err)
		}
		mustVerify(t, om)
	}
}
