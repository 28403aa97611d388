package buffer

import (
	"testing"

	"gom/internal/page"
	"gom/internal/sim"
)

func TestFlushSinglePage(t *testing.T) {
	pool, meter, pids := setup(t, 2, 2)
	f, _ := pool.Get(pids[0])
	f.Page.Update(0, []byte{42})
	f.MarkDirty()
	if err := pool.Flush(pids[0]); err != nil {
		t.Fatal(err)
	}
	if f.Dirty() {
		t.Error("frame still dirty after flush")
	}
	if meter.Count(sim.CntPageWrite) != 1 {
		t.Errorf("writes = %d", meter.Count(sim.CntPageWrite))
	}
	// Clean flush is a no-op.
	if err := pool.Flush(pids[0]); err != nil {
		t.Fatal(err)
	}
	if meter.Count(sim.CntPageWrite) != 1 {
		t.Error("clean page rewritten")
	}
	// The next fault after a flush reads the flushed image.
	if err := pool.Evict(pids[0]); err != nil {
		t.Fatal(err)
	}
	if f, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	} else if rec, _ := f.Page.Read(0); rec[0] != 42 {
		t.Errorf("re-fault after flush reads %v, want the flushed 42", rec)
	}
	if err := pool.Flush(page.NewPageID(9, 9)); err == nil {
		t.Error("flush of unbuffered page succeeded")
	}
}

func TestRefreshReplacesImage(t *testing.T) {
	pool, _, pids := setup(t, 2, 2)
	f, _ := pool.Get(pids[0])

	// Modify through the server directly: write a new image.
	img := f.Page.CloneImage()
	p2, _ := page.FromImage(img)
	p2.Update(0, []byte{77})
	if err := pool.srv.WritePage(pids[0], p2.Image()); err != nil {
		t.Fatal(err)
	}
	if err := pool.Refresh(pids[0]); err != nil {
		t.Fatal(err)
	}
	got, _ := pool.Peek(pids[0]).Page.Read(0)
	if got[0] != 77 {
		t.Errorf("refresh did not pick up server image: %v", got)
	}
}

func TestRefreshFlushesDirtyFirst(t *testing.T) {
	pool, _, pids := setup(t, 2, 2)
	f, _ := pool.Get(pids[0])
	f.Page.Update(0, []byte{99})
	f.MarkDirty()
	if err := pool.Refresh(pids[0]); err != nil {
		t.Fatal(err)
	}
	// The local change must have been shipped before re-reading.
	got, _ := pool.Peek(pids[0]).Page.Read(0)
	if got[0] != 99 {
		t.Errorf("dirty modification lost by refresh: %v", got)
	}
	if err := pool.Refresh(page.NewPageID(9, 9)); err == nil {
		t.Error("refresh of unbuffered page succeeded")
	}
}
