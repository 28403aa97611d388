package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/storage"
)

// A data request outside BeginTx on a transactional server is a
// transaction of one operation: it waits for other transactions' locks,
// leaves snapshots their read point, and is as durable as any commit.

// rewritten is a page read with the record in slot replaced by rec, as the
// bare image WritePage takes.
func rewritten(t *testing.T, read []byte, slot uint16, rec string) []byte {
	t.Helper()
	p, err := pageOf(read)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(int(slot), []byte(rec)); err != nil {
		t.Fatal(err)
	}
	return p.CloneImage()
}

// TestRawReadWaitsForWriter: A's open transaction rewrote a page in place;
// B's ReadPage outside a transaction does not return that uncommitted
// image — it waits for A's X-lock and, once A aborts, returns the
// pre-image.
func TestRawReadWaitsForWriter(t *testing.T) {
	mgr := newMgr(t)
	_, addr, err := mgr.Allocate(0, []byte("committed"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, 5*time.Second))
	defer srv.Close()
	a, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.BeginTx(); err != nil {
		t.Fatal(err)
	}
	pre, err := a.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WritePage(addr.Page, rewritten(t, pre, addr.Slot, "uncommitted")); err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte, 1)
	go func() {
		img, err := b.ReadPage(addr.Page)
		if err != nil {
			t.Error(err)
		}
		read <- img
	}()
	select {
	case img := <-read:
		p, _ := pageOf(img)
		got, _ := p.Read(int(addr.Slot))
		t.Fatalf("B's ReadPage returned %q while A held the page's X-lock", got)
	case <-time.After(100 * time.Millisecond):
	}
	if err := a.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if img := <-read; !bytes.Equal(imageOf(t, img), imageOf(t, pre)) {
		t.Error("after A aborted, B's ReadPage returned another image than the pre-image")
	}
}

// TestSnapshotStableUnderRawWrite: a snapshot reads a page, another client
// rewrites it outside a transaction, and the snapshot reads the page again:
// both reads give the same image.
func TestSnapshotStableUnderRawWrite(t *testing.T) {
	mgr := newMgr(t)
	_, addr, err := mgr.Allocate(0, []byte("before"))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, time.Second))
	defer srv.Close()
	reader, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	if _, _, err := reader.BeginSnapshotTx(); err != nil {
		t.Fatal(err)
	}
	first, err := reader.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.WritePage(addr.Page, rewritten(t, first, addr.Slot, "after")); err != nil {
		t.Fatal(err)
	}
	again, err := reader.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageOf(t, again), imageOf(t, first)) {
		t.Error("the snapshot read the page twice and got two images")
	}
	if err := reader.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// TestRawAllocateDurable: a durable transactional server acknowledges an
// Allocate sent outside a transaction; the object is there after recovery
// from the log directory. One whose commit fails is aborted, and is not.
func TestRawAllocateDurable(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	ts, _, w := durableSetup(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.Allocate(1, []byte("acknowledged"))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchAppend, TornWrite: true, TornAt: 2, Times: 1})
	if _, _, err := c.Allocate(1, []byte("torn")); err == nil {
		t.Error("Allocate over a torn WAL succeeded")
	}
	if n := ts.Live(); n != 0 {
		t.Errorf("%d transactions live after a failed commit, want 0", n)
	}
	c.Close()
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m, w2, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec, _, err := m.Read(id); err != nil || string(rec) != "acknowledged" {
		t.Errorf("after recovery Read(%v) = %q, %v; want the acknowledged object", id, rec, err)
	}
	if n := m.POT().Len(); n != 1 {
		t.Errorf("recovered %d objects, want 1", n)
	}
}
