package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// These tests hold the transaction boundary to its contract now that Commit
// and FlushAll look only at the two dirty lists: everything written is
// shipped, exactly once, across failures, aborts, displacement, the copy
// architecture and relocation.

// writeCounter counts what reaches the server per page and per object.
type writeCounter struct {
	server.Server
	pages   map[page.PageID]int
	objects map[oid.OID]int
}

// countedOM returns an object manager over b whose server traffic is
// counted.
func countedOM(t *testing.T, b *testBase, opt Options) (*OM, *writeCounter) {
	t.Helper()
	srv := &writeCounter{Server: b.srv, pages: map[page.PageID]int{}, objects: map[oid.OID]int{}}
	opt.Server, opt.Schema = srv, b.schema
	om, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return om, srv
}

func (w *writeCounter) WritePage(pid page.PageID, img []byte) error {
	if err := w.Server.WritePage(pid, img); err != nil {
		return err
	}
	w.pages[pid]++
	return nil
}

func (w *writeCounter) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	addr, err := w.Server.UpdateObject(id, rec)
	if err == nil {
		w.objects[id]++
	}
	return addr, err
}

func (w *writeCounter) total() int {
	n := 0
	for _, c := range w.pages {
		n += c
	}
	for _, c := range w.objects {
		n += c
	}
	return n
}

// atMostOnce fails the test if any page or object was written twice.
func (w *writeCounter) atMostOnce(t *testing.T) {
	t.Helper()
	for pid, n := range w.pages {
		if n != 1 {
			t.Errorf("page %v written %d times", pid, n)
		}
	}
	for id, n := range w.objects {
		if n != 1 {
			t.Errorf("object %v rewritten %d times", id, n)
		}
	}
}

// setBuilt writes built = base+i into every step-th part.
func setBuilt(t *testing.T, om *OM, b *testBase, step int, base int64) {
	t.Helper()
	v := om.NewVar("w", b.part)
	defer om.FreeVar(v)
	for i := 0; i < len(b.parts); i += step {
		if err := om.Load(v, b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if err := om.WriteInt(v, "built", base+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkServerImage compares the server's copy of every part, record by
// record, with what the base was built with plus the setBuilt updates.
func checkServerImage(t *testing.T, b *testBase, step int, base int64) {
	t.Helper()
	for i, id := range b.parts {
		rec, _, err := b.srv.Manager().Read(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := object.Decode(b.schema, id, rec)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1993)
		if step > 0 && i%step == 0 {
			want = base + int64(i)
		}
		if p.Int(0) != int64(i+1) || p.Int(2) != int64(i*2) || p.Int(3) != int64(i*3) ||
			p.Int(4) != want || p.SetLen(5) != 3 {
			t.Errorf("part %d on the server: id=%d x=%d y=%d built=%d (want %d) |connTo|=%d",
				i, p.Int(0), p.Int(2), p.Int(3), p.Int(4), want, p.SetLen(5))
		}
	}
}

func TestCommitRetryShipsRemainderOnce(t *testing.T) {
	defer faultpoint.Reset()
	b := buildBase(t, 400)
	om, srv := countedOM(t, b, Options{})
	om.BeginApplication(appSpec(swizzle.LIS))
	setBuilt(t, om, b, 7, 5000)
	mustVerify(t, om)

	// The third page write-back of the commit fails, once.
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.BufferWriteBack, After: 2, Times: 1})
	if err := om.Commit(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("commit under fault: %v", err)
	}
	if got := srv.total(); got != 2 {
		t.Fatalf("%d pages shipped before the fault, want 2", got)
	}
	mustVerify(t, om) // the unshipped pages are still listed
	if err := om.Commit(); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	if len(srv.pages) < 4 {
		t.Fatalf("only %d pages dirtied; the fault was not in the middle", len(srv.pages))
	}
	srv.atMostOnce(t)
	checkServerImage(t, b, 7, 5000)
	mustVerify(t, om)

	// Nothing is left to ship.
	before := srv.total()
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.total() != before {
		t.Errorf("idle commit wrote %d pages", srv.total()-before)
	}
}

func TestDiscardAfterFailedCommitEmptiesLists(t *testing.T) {
	defer faultpoint.Reset()
	b := buildBase(t, 400)
	om, srv := countedOM(t, b, Options{})
	om.BeginApplication(appSpec(swizzle.LDS))
	setBuilt(t, om, b, 7, 6000)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.BufferWriteBack, After: 1, Times: 1})
	if err := om.Commit(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("commit under fault: %v", err)
	}
	om.Discard()
	if len(om.dirty) != 0 {
		t.Errorf("%d objects still on the dirty list after Discard", len(om.dirty))
	}
	if got := om.pool.UnlistedDirty(); len(got) != 0 || om.pool.Len() != 0 {
		t.Errorf("pool after Discard: %d pages, unlisted dirty %v", om.pool.Len(), got)
	}
	shipped := srv.total()

	// The aborted images must never reach the server: a later transaction
	// that only reads commits without a single write.
	om.BeginApplication(appSpec(swizzle.LDS))
	v := om.NewVar("r", b.part)
	for i := 0; i < len(b.parts); i += 7 {
		if err := om.Load(v, b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := om.ReadInt(v, "built"); err != nil {
			t.Fatal(err)
		}
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.total() != shipped {
		t.Errorf("commit after Discard wrote %d pages", srv.total()-shipped)
	}
	mustVerify(t, om)
}

func TestDisplacedDirtyObjectWrittenOnce(t *testing.T) {
	b := buildBase(t, 400)
	om, srv := countedOM(t, b, Options{PageBufferPages: 2})
	om.BeginApplication(appSpec(swizzle.LIS))
	v := om.NewVar("v", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := om.WriteInt(v, "built", 7000); err != nil {
		t.Fatal(err)
	}
	// Walk far enough that part 0's page is evicted: the object is
	// displaced and written back before the commit, and stays listed.
	for i := 1; om.IsResident(b.parts[0]); i++ {
		if i == len(b.parts) {
			t.Fatal("part 0 never displaced")
		}
		if err := om.Load(v, b.parts[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := om.ReadInt(v, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if len(om.dirty) != 1 || srv.total() != 1 {
		t.Fatalf("after displacement: %d listed, %d writes", len(om.dirty), srv.total())
	}
	// Fault it back in (a new in-memory object for the same OID) and commit.
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if got, err := om.ReadInt(v, "built"); err != nil || got != 7000 {
		t.Fatalf("refaulted built = %d, %v", got, err)
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	srv.atMostOnce(t)
	if srv.total() != 1 {
		t.Errorf("%d writes for one update", srv.total())
	}
	checkServerImage(t, b, len(b.parts), 7000)
	mustVerify(t, om)
}

func TestCommitCopyArchitectureRetry(t *testing.T) {
	defer faultpoint.Reset()
	b := buildBase(t, 400)
	// Two page frames: by commit time most dirty objects' pages have cycled
	// out, so their write-back is a server-side UpdateObject.
	om, srv := countedOM(t, b, Options{ObjectCache: true, PageBufferPages: 2})
	om.BeginApplication(appSpec(swizzle.LIS))
	setBuilt(t, om, b, 7, 8000)
	mustVerify(t, om)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.ServerUpdateObject, After: 5, Times: 1})
	if err := om.Commit(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("commit under fault: %v", err)
	}
	if got := len(srv.objects); got != 5 {
		t.Fatalf("%d objects rewritten before the fault, want 5", got)
	}
	mustVerify(t, om)
	if err := om.Commit(); err != nil {
		t.Fatalf("retried commit: %v", err)
	}
	srv.atMostOnce(t)
	checkServerImage(t, b, 7, 8000)
	before := srv.total()
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.total() != before {
		t.Errorf("idle commit wrote %d times", srv.total()-before)
	}
	mustVerify(t, om)
}

func TestCommitRelocatingWriteBackShipsPageOnce(t *testing.T) {
	b := buildBase(t, 80)
	om, srv := countedOM(t, b, Options{})
	om.BeginApplication(appSpec(swizzle.NOS))
	setBuilt(t, om, b, 80, 9000) // part 0, which is about to outgrow its page
	growPart(t, om, b, 450)
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	// The relocation flushed part 0's old page itself; FlushAll, which
	// still finds the frame on its list, must not ship it again.
	srv.atMostOnce(t)
	if srv.objects[b.parts[0]] != 1 {
		t.Errorf("part 0 relocated %d times", srv.objects[b.parts[0]])
	}
	mustVerify(t, om)
	before := srv.total()
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if srv.total() != before {
		t.Errorf("idle commit wrote %d times", srv.total()-before)
	}
	om2 := b.om(t, Options{})
	om2.BeginApplication(appSpec(swizzle.LIS))
	p := om2.NewVar("p", b.part)
	if err := om2.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if n, err := om2.Card(p, "connTo"); err != nil || n != 453 {
		t.Fatalf("card = %d, %v", n, err)
	}
	if got, err := om2.ReadInt(p, "built"); err != nil || got != 9000 {
		t.Fatalf("built = %d, %v", got, err)
	}
}

// TestVerifyConvictsUnlistedDirtyObject: a write site that sets the dirty
// bit without enlisting the object would lose the update at commit; Verify
// is what catches it.
func TestVerifyConvictsUnlistedDirtyObject(t *testing.T) {
	b := buildBase(t, 10)
	om := b.om(t, Options{})
	om.BeginApplication(appSpec(swizzle.LDS))
	v := om.NewVar("v", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	obj, err := om.home(v)
	if err != nil {
		t.Fatal(err)
	}
	obj.Dirty = true // bypasses markDirty
	if err := om.Verify(); err == nil || !strings.Contains(err.Error(), "not on the dirty list") {
		t.Fatalf("Verify = %v, want a dirty-list violation", err)
	}
	obj.Dirty = false
	mustVerify(t, om)
}

// residentOM returns an object manager with the first parts of b and their
// connections resident, resident objects in all, and the variable the
// boundary tests write through, loaded with part 0.
func residentOM(tb testing.TB, b *testBase, resident int) (*OM, *swizzle.Spec) {
	tb.Helper()
	om := b.om(tb, Options{PageBufferPages: 1 << 14})
	spec := appSpec(swizzle.NOS)
	om.BeginApplication(spec)
	v := om.NewVar("warm", b.part)
	c := om.NewVar("warmc", b.conn)
	for i := 0; om.Resident() < resident; i++ {
		if err := om.Load(v, b.parts[i]); err != nil {
			tb.Fatal(err)
		}
		if err := om.Deref(v); err != nil {
			tb.Fatal(err)
		}
		for _, id := range b.conns[i] {
			if err := om.Load(c, id); err != nil {
				tb.Fatal(err)
			}
			if err := om.Deref(c); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := om.Commit(); err != nil {
		tb.Fatal(err)
	}
	return om, spec
}

// boundary runs the two ends of one transaction, with one update in
// between if write is set.
func boundary(tb testing.TB, om *OM, b *testBase, spec *swizzle.Spec, write bool, n int64) {
	om.BeginApplication(spec)
	if write {
		v := om.NewVar("u", b.part)
		err := om.Load(v, b.parts[0])
		if err == nil {
			err = om.WriteInt(v, "built", n)
		}
		om.FreeVar(v)
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := om.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// Resident-set sizes the scaling guard compares.
const (
	fewResident  = 1 << 10
	manyResident = 1 << 16
)

// TestCommitCostIndependentOfResidency is the scaling guard of the
// transaction boundary: BeginApplication + Commit of a read-only and of a
// one-object-update transaction must cost the same with 1k and with 64k
// objects resident — within 2×, where a scan of the ROT or of the pool
// would be 64× — and the read-only boundary must not allocate.
func TestCommitCostIndependentOfResidency(t *testing.T) {
	b := buildBase(t, manyResident/4)
	sizes := []int{fewResident, manyResident}
	var oms [2]*OM
	var spec *swizzle.Spec
	for i, resident := range sizes {
		oms[i], spec = residentOM(t, b, resident)
		if oms[i].Resident() < resident {
			t.Fatalf("%d resident, want %d", oms[i].Resident(), resident)
		}
	}
	for _, tx := range []struct {
		name  string
		write bool
	}{{"read-only", false}, {"one-update", true}} {
		var nanos, allocs [2]float64
		n := int64(0)
		for i, om := range oms {
			allocs[i] = testing.AllocsPerRun(100, func() { n++; boundary(t, om, b, spec, tx.write, n) })
		}
		// Best of several batches, the two sizes taking turns: interference
		// only ever adds time, and what there is of it hits both.
		for batch := 0; batch < 15; batch++ {
			for i, om := range oms {
				t0 := time.Now()
				for k := 0; k < 200; k++ {
					n++
					boundary(t, om, b, spec, tx.write, n)
				}
				if d := float64(time.Since(t0)) / 200; batch == 0 || d < nanos[i] {
					nanos[i] = d
				}
			}
		}
		t.Logf("%s boundary: %.0f ns with %d resident, %.0f ns with %d; %.0f and %.0f allocs",
			tx.name, nanos[0], sizes[0], nanos[1], sizes[1], allocs[0], allocs[1])
		if nanos[1] > 2*nanos[0] {
			t.Errorf("%s boundary costs %.0f ns with %d objects resident, %.0f ns with %d: it scales with the cache",
				tx.name, nanos[1], sizes[1], nanos[0], sizes[0])
		}
		if allocs[1] > allocs[0] || (!tx.write && allocs[0] != 0) {
			t.Errorf("%s boundary allocates %.0f objects with %d resident, %.0f with %d",
				tx.name, allocs[1], sizes[1], allocs[0], sizes[0])
		}
	}
	mustVerify(t, oms[0])
	mustVerify(t, oms[1])
}

// BenchmarkCommitReadOnly measures the two ends of a transaction that wrote
// nothing, at both resident-set sizes of the scaling guard.
func BenchmarkCommitReadOnly(b *testing.B) {
	base := buildBase(b, manyResident/4)
	for _, resident := range []int{fewResident, manyResident} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			om, spec := residentOM(b, base, resident)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				boundary(b, om, base, spec, false, 0)
			}
		})
	}
}
