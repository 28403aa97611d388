package oo1

import (
	"net"
	"testing"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// wireCounter forwards the Server interface, counting every call: each is
// one round trip when the inner server is a TCP client.
type wireCounter struct {
	inner server.Server
	calls int
}

func (s *wireCounter) Lookup(id oid.OID) (storage.PAddr, error) {
	s.calls++
	return s.inner.Lookup(id)
}
func (s *wireCounter) ReadPage(pid page.PageID) ([]byte, error) {
	s.calls++
	return s.inner.ReadPage(pid)
}
func (s *wireCounter) WritePage(pid page.PageID, img []byte) error {
	s.calls++
	return s.inner.WritePage(pid, img)
}
func (s *wireCounter) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	s.calls++
	return s.inner.Allocate(seg, rec)
}
func (s *wireCounter) AllocateNear(seg uint16, n oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	s.calls++
	return s.inner.AllocateNear(seg, n, rec)
}
func (s *wireCounter) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	s.calls++
	return s.inner.UpdateObject(id, rec)
}
func (s *wireCounter) NumPages(seg uint16) (int, error) {
	s.calls++
	return s.inner.NumPages(seg)
}

// TestColdTraversalWireCalls is the round-trip guard of the fault path: a
// cold depth-4 traversal over TCP may ask the server where an object lives
// only when it does not hold the object's page — one Lookup and one
// ReadPage per page fault, never a Lookup for an object on a page the
// client has buffered.
func TestColdTraversalWireCalls(t *testing.T) {
	db, err := Generate(smallCfg(2000))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(ln, db.Srv.Manager())
	defer srv.Close()
	client, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, strat := range []swizzle.Strategy{swizzle.LIS, swizzle.NOS} {
		wire := &wireCounter{inner: client}
		reg := metrics.New()
		c, err := NewClient(db, core.Options{Server: wire, Metrics: reg}, 5)
		if err != nil {
			t.Fatal(err)
		}
		c.Begin(swizzle.NewSpec("cold", strat))
		visits, err := c.Traversal(4)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if want := (intPow(3, 5) - 1) / 2; visits != want {
			t.Fatalf("%v: visits = %d, want %d", strat, visits, want)
		}
		if err := c.OM.Verify(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		pageFaults, objFaults := reg.Count(metrics.CtrPageFault), reg.Count(metrics.CtrObjectFault)
		pool := c.OM.Pool()
		t.Logf("%v: %d wire calls for %d page faults and %d object faults (%d resolved from buffered pages); %d index extents over %d buffered pages",
			strat, wire.calls, pageFaults, objFaults, reg.Count(metrics.CtrObjectFaultLocal), pool.DirectoryExtents(), pool.Len())
		if limit := 2*pageFaults + 2; int64(wire.calls) > limit {
			t.Errorf("%v: %d wire calls for %d page faults, want at most %d", strat, wire.calls, pageFaults, limit)
		}
		if got, pages := pool.DirectoryExtents(), pool.Len(); got > pages+pages/10+1 {
			t.Errorf("%v: %d index extents over %d buffered pages of a clustered base, want about one each", strat, got, pages)
		}
	}
}
