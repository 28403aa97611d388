package core

import (
	"errors"
	"testing"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/sim"
	"gom/internal/swizzle"
)

// TestMissTakesStructuralPath convicts a hit path that believes it can
// complete when it cannot. Each case puts a resident home in front of an
// operation that still needs the structural path — a fault behind the copy
// into the destination, a pending discovery, a stale or displaced target,
// queued invalidations, a deferred error — and requires the right answer,
// clean invariants and the evidence that the structural work happened.
func TestMissTakesStructuralPath(t *testing.T) {
	pageOf := func(om *OM, id oid.OID) page.PageID {
		obj := om.rot.Lookup(id)
		if obj == nil {
			t.Fatalf("%v not resident", id)
		}
		return obj.Page
	}
	cases := []struct {
		name string
		opt  Options
		run  func(t *testing.T, b *testBase, om *OM)
	}{
		{
			// A two-frame buffer holds the home connection's page and one
			// other, referenced more recently. Copying the connection's OID
			// into an eager-direct variable faults the target part's page: the
			// home must be pinned across it, so the other page is the victim.
			// Unpinned, the clock would take the home's.
			name: "fault behind the copy evicts another page, not the home's",
			opt:  Options{PageBufferPages: 2},
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(swizzle.NewSpec("nos+eds-var", swizzle.NOS).WithVar("to", swizzle.EDS))
				c, x, to := om.NewVar("c", b.conn), om.NewVar("x", b.part), om.NewVar("to", b.part)
				last := b.parts[len(b.parts)-1]
				for _, step := range []error{om.Load(c, b.conns[0][0]), om.Deref(c), om.Load(x, last), om.Deref(x)} {
					if step != nil {
						t.Fatal(step)
					}
				}
				home, other := pageOf(om, b.conns[0][0]), pageOf(om, last)
				before := om.Meter().Snapshot()
				if err := om.ReadRef(c, "to", to); err != nil {
					t.Fatal(err)
				}
				d := om.Meter().Since(before)
				if d.Count(sim.CntObjectFault) != 1 || d.Count(sim.CntPageEvict) != 1 {
					t.Errorf("the read charged %v, want one object fault and one page eviction", d)
				}
				if target := pageOf(om, b.parts[1]); target == home || target == other {
					t.Fatalf("test base: target part shares page %v with the home or the other part", target)
				}
				if !om.IsResident(b.conns[0][0]) || !om.pool.Contains(home) {
					t.Error("the fault behind the read displaced the home connection")
				}
				if om.IsResident(last) {
					t.Error("the other page survived: nothing was evicted for the target's")
				}
				if id, err := om.OID(to); err != nil || id != b.parts[1] {
					t.Errorf("to = %v, %v, want %v", id, err, b.parts[1])
				}
			},
		},
		{
			name: "lazy slot pending discovery",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.LDS))
				c, to := om.NewVar("c", b.conn), om.NewVar("to", b.part)
				if err := om.Load(c, b.conns[0][0]); err != nil {
					t.Fatal(err)
				}
				if err := om.Deref(c); err != nil {
					t.Fatal(err)
				}
				for read, wantSwizzles := range []int64{1, 0} { // discovered by the first read only
					before := om.Meter().Snapshot()
					if err := om.ReadRef(c, "to", to); err != nil {
						t.Fatal(err)
					}
					if got := om.Meter().Since(before).Count(sim.CntSwizzleDirect); got != wantSwizzles {
						t.Errorf("read %d swizzled %d references, want %d", read, got, wantSwizzles)
					}
					if x, err := om.ReadInt(to, "part-id"); err != nil || x != 2 {
						t.Errorf("to.part-id = %d, %v, want 2", x, err)
					}
				}
			},
		},
		{
			name: "stale target after a spec switch",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.EDS))
				p := om.NewVar("p", b.part)
				if err := om.Load(p, b.parts[0]); err != nil {
					t.Fatal(err)
				}
				if err := om.Commit(); err != nil {
					t.Fatal(err)
				}
				om.BeginApplication(appSpec(swizzle.LIS))
				p = om.NewVar("p", b.part)
				if err := om.Load(p, b.parts[0]); err != nil {
					t.Fatal(err)
				}
				before := om.Meter().Snapshot()
				if x, err := om.ReadInt(p, "part-id"); err != nil || x != 1 {
					t.Errorf("part-id = %d, %v, want 1", x, err)
				}
				if got := om.Meter().Since(before).Count(sim.CntReswizzle); got != 1 {
					t.Errorf("the read fixed %d stale representations, want 1", got)
				}
				if om.rot.Lookup(b.parts[0]).Stale {
					t.Error("object still stale after it was read")
				}
			},
		},
		{
			name: "invalid descriptor",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.LIS))
				p := om.NewVar("p", b.part)
				if err := om.Load(p, b.parts[3]); err != nil {
					t.Fatal(err)
				}
				if err := om.Deref(p); err != nil {
					t.Fatal(err)
				}
				if err := om.DisplaceObject(b.parts[3]); err != nil {
					t.Fatal(err)
				}
				before := om.Meter().Snapshot()
				if x, err := om.ReadInt(p, "part-id"); err != nil || x != 4 {
					t.Errorf("part-id = %d, %v, want 4", x, err)
				}
				if got := om.Meter().Since(before).Count(sim.CntObjectFault); got != 1 {
					t.Errorf("the read faulted %d objects, want 1", got)
				}
			},
		},
		{
			// The variable's direct reference is found — in the target's RRL —
			// and unswizzled when the target is displaced; the next use must
			// swizzle it again, which faults the target back in.
			name: "variable holding a direct reference across its target's displacement",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.LDS))
				p := om.NewVar("p", b.part)
				if err := om.Load(p, b.parts[3]); err != nil {
					t.Fatal(err)
				}
				before := om.Meter().Snapshot()
				if err := om.DisplaceObject(b.parts[3]); err != nil {
					t.Fatal(err)
				}
				if x, err := om.ReadInt(p, "part-id"); err != nil || x != 4 {
					t.Errorf("part-id = %d, %v, want 4", x, err)
				}
				d := om.Meter().Since(before)
				if d.Count(sim.CntUnswizzleDirect) != 1 || d.Count(sim.CntObjectFault) != 1 || d.Count(sim.CntSwizzleDirect) != 1 {
					t.Errorf("displacement and re-read charged %v, want one unswizzle, one fault, one swizzle", d)
				}
			},
		},
		{
			name: "queued invalidation",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.EDS))
				p := om.NewVar("p", b.part)
				if err := om.Load(p, b.parts[0]); err != nil {
					t.Fatal(err)
				}
				om.NoteInvalidated(1, []page.PageID{pageOf(om, b.parts[0])})
				before := om.Metrics().Snapshot()
				if x, err := om.ReadInt(p, "part-id"); err != nil || x != 1 {
					t.Errorf("part-id = %d, %v, want 1", x, err)
				}
				d := om.Metrics().Snapshot().Delta(before)
				if d.Count(metrics.CtrCoherenceInvalApplied) != 1 || d.Count(metrics.CtrObjectFault) == 0 {
					t.Errorf("the read applied %d invalidations and faulted %d objects, want 1 and some",
						d.Count(metrics.CtrCoherenceInvalApplied), d.Count(metrics.CtrObjectFault))
				}
			},
		},
		{
			name: "deferred eviction error",
			run: func(t *testing.T, b *testBase, om *OM) {
				om.BeginApplication(appSpec(swizzle.EDS))
				p, q := om.NewVar("p", b.part), om.NewVar("q", b.part)
				if err := om.Load(p, b.parts[0]); err != nil {
					t.Fatal(err)
				}
				boom := errors.New("write-back failed in an eviction hook")
				for _, op := range []func() error{
					func() error { _, err := om.ReadInt(p, "x"); return err },
					func() error { return om.Assign(q, p) },
					func() error { return om.Deref(p) },
				} {
					om.deferredErr = boom
					if err := op(); !errors.Is(err, boom) {
						t.Errorf("operation returned %v, want the deferred error", err)
					}
					if err := op(); err != nil {
						t.Errorf("operation after the error was surfaced: %v", err)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := buildBase(t, 120)
			opt := tc.opt
			opt.Metrics = metrics.New()
			om := b.om(t, opt)
			tc.run(t, b, om)
			mustVerify(t, om)
		})
	}
}

// TestRegistryExactAtBoundaries interleaves reads of the registry with
// operations: what the manager holds back (obs.go) must be in the registry
// after every boundary, where it equals what the calls made so far count —
// each ReadInt is one read and one use of its variable's context — and in
// between it may lag by less than publishEvery events and never run ahead.
func TestRegistryExactAtBoundaries(t *testing.T) {
	b := buildBase(t, 24)
	reg := metrics.New()
	om := b.om(t, Options{Metrics: reg})
	var calls int64 // ReadInt calls so far
	totals := func() (reads, derefs int64) {
		for _, row := range reg.ScoreRows() {
			derefs += row.Count(metrics.ScoreDeref)
		}
		return reg.Count(metrics.CtrRead), derefs
	}
	compare := func(at string) {
		t.Helper()
		if r, d := totals(); r != calls || d != calls {
			t.Errorf("%s: registry holds %d reads and %d context uses, the calls made %d of each", at, r, d, calls)
		}
	}
	readInt := func(p *Var, field string) {
		t.Helper()
		if _, err := om.ReadInt(p, field); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	for round := 0; round < 3; round++ {
		om.BeginApplication(appSpec(swizzle.Strategies[round%len(swizzle.Strategies)]))
		compare("after BeginApplication")
		for i := 0; i < 700; i++ { // 4,200 counted events a round: several bounded flushes
			p := om.NewVar("p", b.part)
			if err := om.Load(p, b.parts[i%len(b.parts)]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				readInt(p, "x")
			}
			om.FreeVar(p)
			r, d := totals()
			if r > calls || d > calls || (calls-r)+(calls-d) >= publishEvery {
				t.Fatalf("mid-application: registry holds %d reads and %d context uses of %d: not within %d events",
					r, d, calls, publishEvery)
			}
		}
		// Read through the manager: exact at any point.
		if got := om.Metrics().Count(metrics.CtrRead); got != calls {
			t.Errorf("OM.Metrics: %d reads, want %d", got, calls)
		}
		compare("after OM.Metrics")
		p := om.NewVar("p", b.part)
		if err := om.Load(p, b.parts[0]); err != nil {
			t.Fatal(err)
		}
		readInt(p, "y")
		if err := om.Commit(); err != nil {
			t.Fatal(err)
		}
		compare("after Commit")
	}
	om.BeginApplication(appSpec(swizzle.LIS))
	p := om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[1]); err != nil {
		t.Fatal(err)
	}
	readInt(p, "y")
	om.Discard()
	compare("after Discard")
}

// TestClosedVarStaysClosed: variables come out of slabs, and a slab is never
// handed out twice — a variable freed, or ended by Commit, keeps failing with
// ErrClosedVar however many variables are declared after it.
func TestClosedVarStaysClosed(t *testing.T) {
	b := buildBase(t, 10)
	om := b.om(t, Options{})
	om.BeginApplication(appSpec(swizzle.EDS))
	freed, kept := om.NewVar("p", b.part), om.NewVar("p", b.part)
	if err := om.Load(freed, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	om.FreeVar(freed)
	check := func(v *Var, when string) {
		t.Helper()
		if _, err := om.ReadInt(v, "x"); !errors.Is(err, ErrClosedVar) {
			t.Errorf("ReadInt %s: %v, want ErrClosedVar", when, err)
		}
		if err := om.Assign(v, kept); !errors.Is(err, ErrClosedVar) {
			t.Errorf("Assign %s: %v, want ErrClosedVar", when, err)
		}
		if v.Valid() || !v.IsNil() {
			t.Errorf("variable %s is valid=%v nil=%v", when, v.Valid(), v.IsNil())
		}
	}
	check(freed, "after FreeVar")
	for i := 0; i < 4*varSlab; i++ { // well past the slab the freed one came from
		v := om.NewVar("p", b.part)
		if v == freed || v == kept {
			t.Fatal("NewVar handed out a variable a caller holds")
		}
		if i%2 == 0 {
			om.FreeVar(v)
		}
	}
	check(freed, "after more NewVars")
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	check(kept, "after Commit")
	om.BeginApplication(appSpec(swizzle.EDS))
	for i := 0; i < 4*varSlab; i++ {
		om.NewVar("p", b.part)
	}
	check(freed, "in the next application")
	check(kept, "in the next application")
	mustVerify(t, om)
}
