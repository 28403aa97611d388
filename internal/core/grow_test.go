package core

import (
	"testing"

	"gom/internal/oid"
	"gom/internal/swizzle"
)

// growPart appends many connection references to a part until its record
// has outgrown its page, then commits — exercising the write-back
// relocation path of the page architecture.
func growPart(t *testing.T, om *OM, b *testBase, n int) {
	t.Helper()
	p := om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	c := om.NewVar("c", b.conn)
	for i := 0; i < n; i++ {
		if err := om.Load(c, b.conns[(i/3)%len(b.conns)][i%3]); err != nil {
			t.Fatal(err)
		}
		if err := om.AppendElem(p, "connTo", c); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	om.FreeVar(p)
	om.FreeVar(c)
}

func TestWriteBackRelocationPageArch(t *testing.T) {
	b := buildBase(t, 80)
	om := b.om(t, Options{})
	om.BeginApplication(appSpec(swizzle.NOS))
	// 450 extra refs ≈ 3.6 KB of set data: the record can no longer fit
	// any page slot next to its siblings, so commit must relocate it
	// server-side and refresh the buffered pages.
	growPart(t, om, b, 450)
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, om)

	// A fresh client sees the grown set and all siblings intact.
	om2 := b.om(t, Options{})
	om2.BeginApplication(appSpec(swizzle.LIS))
	p := om2.NewVar("p", b.part)
	if err := om2.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if n, err := om2.Card(p, "connTo"); err != nil || n != 453 {
		t.Fatalf("card = %d, %v", n, err)
	}
	q := om2.NewVar("q", b.part)
	for i := 1; i < 80; i++ {
		if err := om2.Load(q, b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if got, err := om2.ReadInt(q, "part-id"); err != nil || got != int64(i+1) {
			t.Fatalf("sibling %d damaged: %d, %v", i, got, err)
		}
	}
	mustVerify(t, om2)
}

func TestWriteBackRelocationPagewise(t *testing.T) {
	// The same growth under pagewise reverse references: relocation must
	// merge the page-level hints so later displacements still find the
	// incoming references.
	b := buildBase(t, 80)
	om := b.om(t, Options{PagewiseRRL: true})
	om.BeginApplication(appSpec(swizzle.LDS))

	// Swizzle some connections' to-fields pointing at part 0 (inter-page
	// direct references registered pagewise).
	cv := om.NewVar("cv", b.conn)
	pv := om.NewVar("pv", b.part)
	for k := 0; k < 3; k++ {
		// Connections of part 79 point to parts 0..2 in the ring wrap.
		if err := om.Load(cv, b.conns[79][k]); err != nil {
			t.Fatal(err)
		}
		if err := om.ReadRef(cv, "to", pv); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, om)

	// Grow part 0 so a write-back relocates it.
	growPart(t, om, b, 450)
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, om)

	// Displace part 0: the pagewise scan (with merged hints) must
	// unswizzle every direct reference to it.
	id := b.parts[0]
	if om.IsResident(id) {
		if err := om.DisplaceObject(id); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, om)
}

func TestRelocationUnderObjectCache(t *testing.T) {
	b := buildBase(t, 80)
	om := b.om(t, Options{ObjectCache: true, ObjectCacheBytes: 1 << 20})
	om.BeginApplication(appSpec(swizzle.LIS))
	growPart(t, om, b, 450)
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	mustVerify(t, om)
	om2 := b.om(t, Options{})
	om2.BeginApplication(appSpec(swizzle.NOS))
	p := om2.NewVar("p", b.part)
	if err := om2.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if n, _ := om2.Card(p, "connTo"); n != 453 {
		t.Fatalf("card = %d", n)
	}
}

func TestDerefAndTracerCoverage(t *testing.T) {
	b := buildBase(t, 10)
	om := b.om(t, Options{})
	om.BeginApplication(appSpec(swizzle.LDS))
	rec := &recordingTracer{}
	om.SetAccessRecorder(rec)
	v := om.NewVar("v", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := om.Deref(v); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) < 2 { // load entry + x read
		t.Errorf("tracer saw %d events", len(rec.events))
	}
	om.SetAccessRecorder(nil)
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.events); got < 2 {
		t.Errorf("events after detach = %d", got)
	}
}

type recordingTracer struct {
	events []string
}

func (r *recordingTracer) Record(id oid.OID, attr string, write bool) {
	r.events = append(r.events, id.String()+"."+attr)
}
