package oo1

import (
	"net"
	"testing"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/server"
	"gom/internal/swizzle"
)

// framesSent is the number of request frames the client behind reg has put
// on the wire — frames, not calls through some decorator: a call the
// client answers itself sends none.
func framesSent(reg *metrics.Registry) (n int64) {
	for _, f := range reg.Snapshot().RPCFrames[1] {
		n += f
	}
	return n
}

// TestColdTraversalWireCalls is the round-trip guard of the fault path: a
// cold depth-4 traversal over TCP may ask the server where an object lives
// only when it does not hold the object's page, and the answer brings the
// page — one frame per page fault, never a Lookup for an object on a page
// the client has buffered, never a ReadPage behind a Lookup.
func TestColdTraversalWireCalls(t *testing.T) {
	db, err := Generate(smallCfg(2000))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(db.Srv.Manager(), 0))
	defer srv.Close()
	// Callbacks are what covers a page the client keeps between the Lookup
	// answer and its ReadPage; without them the answer is the address only.
	srv.EnableCoherence(server.CoherenceOptions{})

	for _, strat := range []swizzle.Strategy{swizzle.LIS, swizzle.NOS} {
		wire := metrics.New()
		client, err := server.DialWith(srv.Addr().String(), server.DialOptions{Metrics: wire})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		reg := metrics.New()
		c, err := NewClient(db, core.Options{Server: client, Metrics: reg}, 5)
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
		frames := framesSent(wire)
		pageFaults, objFaults := reg.Count(metrics.CtrPageFault), reg.Count(metrics.CtrObjectFault)
		pool := c.OM.Pool()
		t.Logf("%v: %d frames sent for %d page faults and %d object faults (%d resolved from buffered pages, %d pages came with their Lookup); %d index extents over %d buffered pages",
			strat, frames, pageFaults, objFaults, reg.Count(metrics.CtrObjectFaultLocal), wire.Count(metrics.CtrLookupPageTaken), pool.DirectoryExtents(), pool.Len())
		if limit := pageFaults + 2; frames > limit {
			t.Errorf("%v: %d frames sent for %d page faults, want at most %d", strat, frames, pageFaults, limit)
		}
		if got, pages := pool.DirectoryExtents(), pool.Len(); got > pages+pages/10+1 {
			t.Errorf("%v: %d index extents over %d buffered pages of a clustered base, want about one each", strat, got, pages)
		}
	}
}
