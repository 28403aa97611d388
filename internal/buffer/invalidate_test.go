package buffer

import (
	"testing"

	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/sim"
)

// slot0 reads the first byte of the page's slot-0 record.
func slot0(t *testing.T, pg *page.Page) byte {
	t.Helper()
	rec, err := pg.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	return rec[0]
}

// TestInvalidateRules: Invalidate is how a page named by a coherence push
// or by a snapshot begin leaves the pool. A clean frame goes through the
// eviction hook and the next Get faults the server's current image; a
// locally dirty frame stays (the client's own writes are newer than the
// server's copy, not older); a pinned frame stays put under the Pin
// contract and reports done=false until the pins drain.
func TestInvalidateRules(t *testing.T) {
	mgr, pids := newBase(t, 3)
	pool := New(server.NewLocal(mgr), 3, sim.NewMeter(sim.DefaultCosts()))
	var hooked []page.PageID
	pool.OnEvict(func(pid page.PageID, _ *Frame) { hooked = append(hooked, pid) })

	// rewrite replaces the page's slot-0 record server-side, underneath
	// the pool.
	rewrite := func(pid page.PageID, b byte) {
		t.Helper()
		img, err := mgr.Disk().ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := page.FromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Update(0, []byte{b}); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Disk().WritePage(pid, pg.Image()); err != nil {
			t.Fatal(err)
		}
	}
	clean, dirty, pinned := pids[0], pids[1], pids[2]
	for _, pid := range pids {
		if _, err := pool.Get(pid); err != nil {
			t.Fatal(err)
		}
		rewrite(pid, 0xee)
	}
	pool.Peek(dirty).MarkDirty()
	if err := pool.Pin(pinned); err != nil {
		t.Fatal(err)
	}

	if done, err := pool.Invalidate(clean); err != nil || !done {
		t.Fatalf("Invalidate(clean) = %v, %v; want done", done, err)
	}
	if len(hooked) != 1 || hooked[0] != clean || pool.Contains(clean) {
		t.Fatalf("clean frame: hook saw %v, still buffered %v; want the hook once and the frame gone", hooked, pool.Contains(clean))
	}
	if f, err := pool.Get(clean); err != nil || slot0(t, f.Page) != 0xee {
		t.Fatalf("the fault after the invalidation reads %#x, %v; want the server's 0xee", slot0(t, f.Page), err)
	}

	if done, err := pool.Invalidate(dirty); err != nil || !done {
		t.Fatalf("Invalidate(dirty) = %v, %v; want done (nothing to do)", done, err)
	}
	if f := pool.Peek(dirty); f == nil || !f.Dirty() || slot0(t, f.Page) != 1 {
		t.Fatal("a locally dirty frame was dropped or overwritten by its invalidation")
	}

	if done, err := pool.Invalidate(pinned); err != nil || done {
		t.Fatalf("Invalidate(pinned) = %v, %v; want not done", done, err)
	}
	if f := pool.Peek(pinned); f == nil || slot0(t, f.Page) != 2 {
		t.Fatal("a pinned frame moved under its pin")
	}
	if err := pool.Unpin(pinned); err != nil {
		t.Fatal(err)
	}
	if done, err := pool.Invalidate(pinned); err != nil || !done || pool.Contains(pinned) {
		t.Fatalf("Invalidate after Unpin = %v, %v, still buffered %v; want done and gone", done, err, pool.Contains(pinned))
	}
	if len(hooked) != 2 || hooked[1] != pinned {
		t.Errorf("the eviction hook saw %v, want the clean page and then the unpinned one", hooked)
	}
	if done, err := pool.Invalidate(pinned); err != nil || !done {
		t.Errorf("Invalidate of a page not buffered = %v, %v; want done", done, err)
	}
}
