package server

import (
	"net"
	"testing"
	"time"

	"gom/internal/storage"
)

func serveTx(t *testing.T) (*TCPServer, *TxServer, *storage.Manager) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	txsrv := NewTxServer(mgr, 150*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ServeTx(ln, txsrv), txsrv, mgr
}

func TestTCPTransactionCommit(t *testing.T) {
	srv, _, _ := serveTx(t)
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx, err := c.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if tx == 0 {
		t.Fatal("zero tx id")
	}
	id, addr, err := c.Allocate(0, []byte("remote tx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
	// Visible outside any transaction.
	img, err := c.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pageOf(img)
	rec, err := p.Read(int(addr.Slot))
	if err != nil || string(rec) != "remote tx" {
		t.Fatalf("rec = %q, %v", rec, err)
	}
	if _, err := c.Lookup(id); err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransactionAbort(t *testing.T) {
	srv, _, _ := serveTx(t)
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	id, _, err := c.Allocate(0, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(id); err == nil {
		t.Error("aborted allocation visible")
	}
	// Double operations fail cleanly.
	if err := c.CommitTx(); err == nil {
		t.Error("commit without transaction succeeded")
	}
}

func TestTCPTransactionIsolationAcrossConnections(t *testing.T) {
	srv, _, mgr := serveTx(t)
	defer srv.Close()
	id, _, err := mgr.Allocate(0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := b.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.UpdateObject(id, []byte("from A!")); err != nil {
		t.Fatal(err)
	}
	// B's write must time out against A's X lock.
	if _, err := b.UpdateObject(id, []byte("from B!")); err == nil {
		t.Fatal("conflicting remote write succeeded")
	}
	if err := b.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if err := a.CommitTx(); err != nil {
		t.Fatal(err)
	}
	addr, _ := a.Lookup(id)
	img, _ := a.ReadPage(addr.Page)
	p, _ := pageOf(img)
	rec, _ := p.Read(int(addr.Slot))
	if string(rec) != "from A!" {
		t.Errorf("winner = %q", rec)
	}
}

func TestTCPDroppedConnectionAborts(t *testing.T) {
	srv, txsrv, mgr := serveTx(t)
	defer srv.Close()
	id, _, err := mgr.Allocate(0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateObject(id, []byte("dying")); err != nil {
		t.Fatal(err)
	}
	c.Close() // drop mid-transaction
	// The server aborts the orphan; poll until it is gone.
	deadline := time.Now().Add(2 * time.Second)
	for txsrv.Live() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("orphan transaction never aborted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec, _, err := mgr.Read(id)
	if err != nil || string(rec) != "seed" {
		t.Errorf("after dropped connection: %q, %v", rec, err)
	}
}

func TestTCPBeginOnPlainServerFails(t *testing.T) {
	mgr := storage.NewManager(1)
	mgr.CreateSegment(0)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.BeginTx(); err == nil {
		t.Error("BeginTx on non-transactional server succeeded")
	}
}
