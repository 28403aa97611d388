package buffer

import (
	"errors"
	"reflect"
	"testing"

	"gom/internal/faultpoint"
	"gom/internal/page"
	"gom/internal/server"
)

// writeLog is a server that records the pages written to it, in order.
type writeLog struct {
	server.Server
	writes []page.PageID
}

func (w *writeLog) WritePage(pid page.PageID, img []byte) error {
	w.writes = append(w.writes, pid)
	return w.Server.WritePage(pid, img)
}

// setupLogged is setup with the server's write sequence observable.
func setupLogged(t *testing.T, npages, capacity int) (*Pool, *writeLog, []page.PageID) {
	t.Helper()
	pool, _, pids := setup(t, npages, capacity)
	srv := &writeLog{Server: pool.srv}
	pool.srv = srv
	return pool, srv, pids
}

func dirty(t *testing.T, pool *Pool, pid page.PageID, val byte) {
	t.Helper()
	f, err := pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Page.Update(0, []byte{val}); err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
}

// TestFlushAllShipsListedFramesInInstallOrder: frames dirtied in any order,
// any number of times, go out once each, oldest installation first, and
// clean frames are not visited at all.
func TestFlushAllShipsListedFramesInInstallOrder(t *testing.T) {
	pool, srv, pids := setupLogged(t, 6, 6)
	for _, pid := range pids {
		if _, err := pool.Get(pid); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{4, 1, 3, 1, 4} {
		dirty(t, pool, pids[i], 50)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if want := []page.PageID{pids[1], pids[3], pids[4]}; !reflect.DeepEqual(srv.writes, want) {
		t.Fatalf("writes = %v, want %v", srv.writes, want)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(srv.writes) != 3 {
		t.Errorf("second FlushAll wrote %v", srv.writes[3:])
	}
	if got := pool.UnlistedDirty(); len(got) != 0 {
		t.Errorf("unlisted dirty frames: %v", got)
	}
}

// TestFlushAllSkipsFramesShippedMeanwhile: a listed frame that an eviction
// or an explicit Flush already shipped is not written a second time, and
// one dirtied again afterwards (listed twice) goes out once.
func TestFlushAllSkipsFramesShippedMeanwhile(t *testing.T) {
	pool, srv, pids := setupLogged(t, 4, 3)
	dirty(t, pool, pids[0], 60)
	dirty(t, pool, pids[1], 61)
	dirty(t, pool, pids[2], 62)
	if err := pool.Flush(pids[1]); err != nil {
		t.Fatal(err)
	}
	if err := pool.Evict(pids[0]); err != nil {
		t.Fatal(err)
	}
	dirty(t, pool, pids[1], 63) // clean → dirty again: second listing
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	want := []page.PageID{pids[1], pids[0], pids[1], pids[2]}
	if !reflect.DeepEqual(srv.writes, want) {
		t.Fatalf("writes = %v, want %v", srv.writes, want)
	}
}

// TestFlushAllFailureKeepsRemainderListed: a write-back that fails in the
// middle returns the error, the frames not shipped stay listed, and the
// next FlushAll ships exactly those.
func TestFlushAllFailureKeepsRemainderListed(t *testing.T) {
	defer faultpoint.Reset()
	pool, srv, pids := setupLogged(t, 5, 5)
	for i, pid := range pids {
		dirty(t, pool, pid, byte(70+i))
	}
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.BufferWriteBack, After: 2, Times: 1})
	if err := pool.FlushAll(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("FlushAll under fault: %v", err)
	}
	if !reflect.DeepEqual(srv.writes, pids[:2]) {
		t.Fatalf("shipped before the fault: %v", srv.writes)
	}
	if got := pool.UnlistedDirty(); len(got) != 0 {
		t.Fatalf("failed FlushAll lost track of dirty frames %v", got)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srv.writes, pids) {
		t.Fatalf("writes after retry = %v, want each of %v once", srv.writes, pids)
	}
	for i, pid := range pids {
		f, _ := pool.Get(pid)
		if f.Dirty() {
			t.Errorf("page %v still dirty", pid)
		}
		img, _ := srv.ReadPage(pid)
		pg, _ := page.FromImage(img)
		if rec, _ := pg.Read(0); rec[0] != byte(70+i) {
			t.Errorf("server image of %v = %v", pid, rec)
		}
	}
}

// TestDiscardAndDropAllEmptyDirtyList: an abort throws the list away with
// the frames, so nothing buffered before it can be flushed after it.
func TestDiscardAndDropAllEmptyDirtyList(t *testing.T) {
	pool, srv, pids := setupLogged(t, 3, 3)
	for _, pid := range pids {
		dirty(t, pool, pid, 80)
	}
	pool.Discard()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(srv.writes) != 0 {
		t.Fatalf("flush after Discard wrote %v", srv.writes)
	}
	dirty(t, pool, pids[0], 81)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if want := []page.PageID{pids[0]}; !reflect.DeepEqual(srv.writes, want) {
		t.Fatalf("writes = %v, want %v", srv.writes, want)
	}
}

// TestUnlistedDirtyConvictsBypass: the check finds a dirty bit that was
// set without going through MarkDirty.
func TestUnlistedDirtyConvictsBypass(t *testing.T) {
	pool, _, pids := setupLogged(t, 2, 2)
	dirty(t, pool, pids[0], 90)
	f, _ := pool.Get(pids[1])
	f.dirty = true
	if got := pool.UnlistedDirty(); !reflect.DeepEqual(got, []page.PageID{pids[1]}) {
		t.Fatalf("UnlistedDirty = %v, want [%v]", got, pids[1])
	}
}
