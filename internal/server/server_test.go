package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

func newMgr(t *testing.T) *storage.Manager {
	t.Helper()
	m := storage.NewManager(1)
	if err := m.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	return m
}

// exercise runs the same conformance workload against any Server
// implementation.
func exercise(t *testing.T, s Server) {
	t.Helper()
	id, addr, err := s.Allocate(0, []byte("via server"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(id)
	if err != nil || got != addr {
		t.Fatalf("lookup = %v, %v; want %v", got, err, addr)
	}
	img, err := s.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pageOf(img)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Read(int(addr.Slot))
	if err != nil || string(rec) != "via server" {
		t.Fatalf("rec = %q, %v", rec, err)
	}

	// Write the page back with a modification.
	if err := p.Update(int(addr.Slot), []byte("modified!!")); err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(addr.Page, p.Image()); err != nil {
		t.Fatal(err)
	}
	img2, _ := s.ReadPage(addr.Page)
	q, _ := pageOf(img2)
	rec, _ = q.Read(int(addr.Slot))
	if string(rec) != "modified!!" {
		t.Fatalf("after write back = %q", rec)
	}

	// Clustered allocation.
	nid, naddr, err := s.AllocateNear(0, id, []byte("neighbor"))
	if err != nil {
		t.Fatal(err)
	}
	if nid == id {
		t.Fatal("duplicate OID")
	}
	if naddr.Page != addr.Page {
		t.Errorf("neighbor not clustered: %v vs %v", naddr.Page, addr.Page)
	}

	// Server-side update with relocation potential.
	big := bytes.Repeat([]byte{3}, 3000)
	uaddr, err := s.UpdateObject(id, big)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := s.Lookup(id)
	if err != nil || resolved != uaddr {
		t.Fatalf("lookup after update = %v, %v; want %v", resolved, err, uaddr)
	}

	n, err := s.NumPages(0)
	if err != nil || n < 1 {
		t.Fatalf("numpages = %d, %v", n, err)
	}

	// Errors surface.
	if _, err := s.Lookup(oid.MustNew(9, 12345)); err == nil {
		t.Error("lookup of unknown OID succeeded")
	}
	if _, err := s.ReadPage(page.NewPageID(7, 0)); err == nil {
		t.Error("read of missing segment succeeded")
	}
	if _, err := s.NumPages(42); err == nil {
		t.Error("numpages of missing segment succeeded")
	}
}

// pageOf parses what a Server's ReadPage returned: the image, and behind
// it, over a connection that negotiated page directories, the directory.
func pageOf(b []byte) (*page.Page, error) {
	img, _, err := page.SplitImage(b)
	if err != nil {
		return nil, err
	}
	return page.FromImage(img)
}

// imageOf is the bare image of a page read, as WritePage wants it back.
func imageOf(tb testing.TB, b []byte) []byte {
	tb.Helper()
	img, _, err := page.SplitImage(b)
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func TestLocalServerConformance(t *testing.T) {
	exercise(t, NewLocal(newMgr(t)))
}

func TestTCPServerConformance(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	exercise(t, client)
}

func TestTCPConcurrentClients(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				rec := []byte(fmt.Sprintf("c%d-i%d", c, i))
				id, _, err := cl.Allocate(0, rec)
				if err != nil {
					errs <- err
					return
				}
				addr, err := cl.Lookup(id)
				if err != nil {
					errs <- err
					return
				}
				img, err := cl.ReadPage(addr.Page)
				if err != nil {
					errs <- err
					return
				}
				p, err := pageOf(img)
				if err != nil {
					errs <- err
					return
				}
				got, err := p.Read(int(addr.Slot))
				if err != nil || !bytes.Equal(got, rec) {
					errs <- fmt.Errorf("c%d i%d: read %q, %v", c, i, got, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mgr.POT().Len() != clients*perClient {
		t.Errorf("POT has %d entries, want %d", mgr.POT().Len(), clients*perClient)
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Allocate(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	if _, _, err := client.Allocate(0, []byte("y")); err == nil {
		t.Error("allocate after server close succeeded")
	}
	client.Close()
}

func TestClientRejectsOversizeWritePage(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	client, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.WritePage(page.NewPageID(0, 0), make([]byte, 12)); err == nil {
		t.Error("short image accepted by client")
	}
}
