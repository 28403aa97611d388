package buffer

import (
	"testing"

	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
)

// setup builds a manager with n pages in segment 0, each holding one record
// naming its page number.
func setup(t *testing.T, npages, capacity int) (*Pool, *sim.Meter, []page.PageID) {
	t.Helper()
	mgr, pids := newBase(t, npages)
	meter := sim.NewMeter(sim.DefaultCosts())
	return New(server.NewLocal(mgr), capacity, meter), meter, pids
}

// newBase is the storage under setup's pool: npages pages, page i holding
// the one-byte record i in slot 0.
func newBase(t *testing.T, npages int) (*storage.Manager, []page.PageID) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	pids := make([]page.PageID, npages)
	for i := range pids {
		pid, err := mgr.Disk().AllocPage(0)
		if err != nil {
			t.Fatal(err)
		}
		img, _ := mgr.Disk().ReadPage(pid)
		pg, _ := page.FromImage(img)
		pg.Insert([]byte{byte(i)})
		mgr.Disk().WritePage(pid, pg.Image())
		pids[i] = pid
	}
	return mgr, pids
}

func TestGetFaultsOnce(t *testing.T) {
	pool, meter, pids := setup(t, 3, 3)
	f, err := pool.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Page.Read(0)
	if err != nil || rec[0] != 0 {
		t.Fatalf("rec = %v, %v", rec, err)
	}
	if meter.Count(sim.CntPageFault) != 1 {
		t.Errorf("faults = %d", meter.Count(sim.CntPageFault))
	}
	if _, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	}
	if meter.Count(sim.CntPageFault) != 1 {
		t.Errorf("hit counted as fault: %d", meter.Count(sim.CntPageFault))
	}
	if meter.Micros() != meter.Costs().PageIO {
		t.Errorf("micros = %f", meter.Micros())
	}
}

func TestLRUEviction(t *testing.T) {
	pool, meter, pids := setup(t, 4, 2)
	pool.Get(pids[0])
	pool.Get(pids[1])
	pool.Get(pids[0]) // 0 is now MRU, 1 is LRU
	pool.Get(pids[2]) // must evict 1
	if pool.Contains(pids[1]) {
		t.Error("LRU page not evicted")
	}
	if !pool.Contains(pids[0]) || !pool.Contains(pids[2]) {
		t.Error("wrong page evicted")
	}
	if meter.Count(sim.CntPageEvict) != 1 {
		t.Errorf("evictions = %d", meter.Count(sim.CntPageEvict))
	}
	if pool.Len() != 2 {
		t.Errorf("len = %d", pool.Len())
	}
}

func TestPinPreventsEviction(t *testing.T) {
	pool, _, pids := setup(t, 4, 2)
	pool.Get(pids[0])
	pool.Get(pids[1])
	if err := pool.Pin(pids[0]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Pin(pids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(pids[2]); err == nil {
		t.Fatal("fault with all frames pinned succeeded")
	}
	if err := pool.Unpin(pids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(pids[2]); err != nil {
		t.Fatal(err)
	}
	if pool.Contains(pids[0]) {
		t.Error("unpinned LRU page survived")
	}
	if !pool.Contains(pids[1]) {
		t.Error("pinned page evicted")
	}
	if err := pool.Unpin(pids[0]); err == nil {
		t.Error("unpin of evicted page succeeded")
	}
	pool.Unpin(pids[1])
	if err := pool.Unpin(pids[1]); err == nil {
		t.Error("unpin below zero succeeded")
	}
}

func TestDirtyWriteBackOnEvict(t *testing.T) {
	pool, meter, pids := setup(t, 3, 1)
	f, _ := pool.Get(pids[0])
	if err := f.Page.Update(0, []byte{99}); err != nil {
		t.Fatal(err)
	}
	pool.MarkDirty(pids[0])
	pool.Get(pids[1]) // evicts 0, must write back
	if meter.Count(sim.CntPageWrite) != 1 {
		t.Errorf("writes = %d", meter.Count(sim.CntPageWrite))
	}
	// Refault and verify the change survived.
	f, _ = pool.Get(pids[0])
	rec, _ := f.Page.Read(0)
	if rec[0] != 99 {
		t.Errorf("write-back lost: rec = %v", rec)
	}
}

func TestEvictHookRunsAndMayDirty(t *testing.T) {
	pool, meter, pids := setup(t, 2, 1)
	var hooked []page.PageID
	pool.OnEvict(func(pid page.PageID, f *Frame) {
		hooked = append(hooked, pid)
		f.Page.Update(0, []byte{77})
		f.MarkDirty()
	})
	pool.Get(pids[0])
	pool.Get(pids[1])
	if len(hooked) != 1 || hooked[0] != pids[0] {
		t.Fatalf("hooked = %v", hooked)
	}
	if meter.Count(sim.CntPageWrite) != 1 {
		t.Error("hook-dirtied page not written back")
	}
	f, _ := pool.Get(pids[0])
	rec, _ := f.Page.Read(0)
	if rec[0] != 77 {
		t.Error("hook modification lost")
	}
}

func TestFlushAllKeepsPages(t *testing.T) {
	pool, meter, pids := setup(t, 3, 3)
	for _, pid := range pids {
		f, _ := pool.Get(pid)
		f.Page.Update(0, []byte{55})
		f.MarkDirty()
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if meter.Count(sim.CntPageWrite) != 3 {
		t.Errorf("writes = %d", meter.Count(sim.CntPageWrite))
	}
	if pool.Len() != 3 {
		t.Error("flush dropped pages")
	}
	// Second flush writes nothing.
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if meter.Count(sim.CntPageWrite) != 3 {
		t.Error("clean pages rewritten")
	}
}

func TestDropAll(t *testing.T) {
	pool, _, pids := setup(t, 3, 3)
	for _, pid := range pids {
		pool.Get(pid)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 0 {
		t.Errorf("len = %d after DropAll", pool.Len())
	}
}

func TestPagesOrder(t *testing.T) {
	pool, _, pids := setup(t, 3, 3)
	pool.Get(pids[0])
	pool.Get(pids[1])
	pool.Get(pids[2])
	pool.Get(pids[0])
	got := pool.Pages()
	if len(got) != 3 || got[0] != pids[0] || got[1] != pids[2] || got[2] != pids[1] {
		t.Errorf("pages = %v", got)
	}
}

func TestErrorsSurface(t *testing.T) {
	pool, _, _ := setup(t, 1, 1)
	if _, err := pool.Get(page.NewPageID(9, 0)); err == nil {
		t.Error("fault of missing page succeeded")
	}
	if err := pool.MarkDirty(page.NewPageID(0, 0)); err == nil {
		t.Error("MarkDirty of unbuffered page succeeded")
	}
	if err := pool.Pin(page.NewPageID(0, 0)); err == nil {
		t.Error("Pin of unbuffered page succeeded")
	}
	if err := pool.Evict(page.NewPageID(0, 0)); err == nil {
		t.Error("Evict of unbuffered page succeeded")
	}
}
