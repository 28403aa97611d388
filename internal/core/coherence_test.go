package core

import (
	"net"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// coherentClient serves the base over TCP with coherence enabled and
// dials one client. EnableCoherence must precede the dial: connections
// negotiated earlier stay non-coherent.
func coherentClient(t *testing.T, b *testBase) (*server.TCPServer, *server.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(b.srv.Manager(), 0))
	srv.EnableCoherence(server.CoherenceOptions{})
	t.Cleanup(func() { srv.Close() })
	client, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if !client.HasCoherence() {
		t.Fatal("coherence not negotiated")
	}
	return srv, client
}

// TestDerefCoherenceIdleZeroAlloc pins the hot-path cost of the coherence
// machinery when it is wired but idle — the common case: coherence
// negotiated, handlers installed, no invalidation pending. A steady-state
// field read must stay at zero allocations; the only addition to the hit
// path is one atomic flag load (hitViable).
func TestDerefCoherenceIdleZeroAlloc(t *testing.T) {
	b := buildBase(t, 10)
	_, client := coherentClient(t, b)
	om, err := New(Options{Server: client, Schema: b.schema, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.EDS))
	v := om.NewVar("p", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := om.ReadInt(v, "x"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("idle-coherence ReadInt allocates %.1f objects/op, want 0", allocs)
	}
	mustVerify(t, om)
}

// TestTwoClientsCoherentSharing is TestTwoClientsSequentialSharing with
// the callbacks on: client A keeps its resident, swizzled copy while
// client B commits a change, and A's very next read — no Reset, no cold
// reload — sees B's value. The invalidation displaced A's resident object
// (unswizzling its references), dropped the buffered page, and the deref
// re-faulted both from the server. Deterministic because B's committing
// write is held until A acknowledges the invalidation.
func TestTwoClientsCoherentSharing(t *testing.T) {
	b := buildBase(t, 30)
	srv, clientA := coherentClient(t, b)
	clientB, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer clientB.Close()

	regA := metrics.New()
	omA, err := New(Options{Server: clientA, Schema: b.schema, Metrics: regA})
	if err != nil {
		t.Fatal(err)
	}
	omB, err := New(Options{Server: clientB, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}

	// A materializes and swizzles the object, then stays resident (A does
	// not commit, so its variable stays live across B's activity).
	omA.BeginApplication(appSpec(swizzle.EDS))
	p := omA.NewVar("p", b.part)
	if err := omA.Load(p, b.parts[3]); err != nil {
		t.Fatal(err)
	}
	initial, err := omA.ReadInt(p, "built")
	if err != nil {
		t.Fatal(err)
	}

	// B commits a conflicting change; its commit waits for A's ack.
	omB.BeginApplication(appSpec(swizzle.LDS))
	q := omB.NewVar("q", b.part)
	if err := omB.Load(q, b.parts[3]); err != nil {
		t.Fatal(err)
	}
	if got, err := omB.ReadInt(q, "built"); err != nil || got != initial {
		t.Fatalf("B read = %d, %v, want %d", got, err, initial)
	}
	if err := omB.WriteInt(q, "built", 2222); err != nil {
		t.Fatal(err)
	}
	if err := omB.Commit(); err != nil {
		t.Fatal(err)
	}

	// A's next read starts after the acknowledged invalidation: it must
	// re-fault and see 2222 — the stale-copy caveat the sequential-sharing
	// test documents is gone.
	if got, err := omA.ReadInt(p, "built"); err != nil || got != 2222 {
		t.Fatalf("A after B's commit = %d, %v (stale copy served?)", got, err)
	}
	if got := regA.Count(metrics.CtrCoherenceInvalApplied); got < 1 {
		t.Errorf("invalidations_applied = %d, want >= 1", got)
	}
	mustVerify(t, omA)
	mustVerify(t, omB)

	// And back the other way: A commits a change (ending A's application),
	// and B — which has not committed since its reload below — re-reads
	// fresh through its still-live variable.
	omB.BeginApplication(appSpec(swizzle.LDS))
	q2 := omB.NewVar("q2", b.part)
	if err := omB.Load(q2, b.parts[3]); err != nil {
		t.Fatal(err)
	}
	if got, err := omB.ReadInt(q2, "built"); err != nil || got != 2222 {
		t.Fatalf("B reload = %d, %v", got, err)
	}
	omA.BeginApplication(appSpec(swizzle.NOS))
	p2 := omA.NewVar("p2", b.part)
	if err := omA.Load(p2, b.parts[3]); err != nil {
		t.Fatal(err)
	}
	if err := omA.WriteInt(p2, "built", 3333); err != nil {
		t.Fatal(err)
	}
	if err := omA.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := omB.ReadInt(q2, "built"); err != nil || got != 3333 {
		t.Fatalf("B after A's commit = %d, %v", got, err)
	}
	mustVerify(t, omB)
}

// TestCoherenceLeaseExpiryDropsCache: when the client's lease fires (a
// dead server connection), the OM queues a drop-everything invalidation;
// the next operation displaces all residents and surfaces the refetch
// failure instead of serving any cached page.
func TestCoherenceLeaseExpiryDropsCache(t *testing.T) {
	b := buildBase(t, 10)
	srv, client := coherentClient(t, b)
	om, err := New(Options{Server: client, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.LDS))
	v := om.NewVar("p", b.part)
	if err := om.Load(v, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(v, "x"); err != nil {
		t.Fatal(err)
	}

	srv.Close() // connection death fires the lease handler

	// The cached page may not be served past the lease: with the server
	// gone the re-fault must fail rather than return the resident copy.
	// Detection of the dead connection takes a moment; the reads in the
	// interim legitimately serve the still-leased copy.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := om.ReadInt(v, "x"); err != nil {
			return // stale copy dropped, re-fault failed: correct
		}
		if time.Now().After(deadline) {
			t.Fatal("read served a cached page past an expired lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInvalidationQueuedFromAnotherGoroutine pins the one entry to an
// object manager that another goroutine may call. While the owner runs EDS
// traversals, a second goroutine — standing in for the TCP read loop —
// queues invalidations of the pages the traversals hold and, once, a lease
// expiry. Run under -race: the queue is the only state the two share. Every
// value the owner reads must be the server's, the invariants must hold, and
// every queued page must be counted as applied.
func TestInvalidationQueuedFromAnotherGoroutine(t *testing.T) {
	const nParts, depth, rounds = 40, 3, 300
	b := buildBase(t, nParts)
	mgr := b.srv.Manager()
	want := map[oid.OID]int64{} // part-id of every part, as the server has it
	var pages []page.PageID
	seen := map[page.PageID]bool{}
	for i, id := range b.parts {
		rec, addr, err := mgr.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := object.Decode(b.schema, id, rec)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = obj.Int(0)
		for _, pid := range []page.PageID{addr.Page, mustAddr(t, mgr, b.conns[i][0]).Page} {
			if !seen[pid] {
				seen[pid] = true
				pages = append(pages, pid)
			}
		}
	}
	const capacity = 64
	om := b.om(t, Options{PageBufferPages: capacity, Metrics: metrics.New()})
	om.BeginApplication(appSpec(swizzle.EDS))

	var traverse func(p *Var, d int)
	traverse = func(p *Var, d int) {
		id, err := om.OID(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := om.ReadInt(p, "part-id"); err != nil || got != want[id] {
			t.Fatalf("part %v: part-id = %d, %v; the server has %d", id, got, err, want[id])
		}
		if d == 0 {
			return
		}
		n, err := om.Card(p, "connTo")
		if err != nil {
			t.Fatal(err)
		}
		c, q := om.NewVar("c", b.conn), om.NewVar("q", b.part)
		for j := 0; j < n; j++ {
			if err := om.ReadElem(p, "connTo", j, c); err != nil {
				t.Fatal(err)
			}
			if err := om.ReadRef(c, "to", q); err != nil {
				t.Fatal(err)
			}
			traverse(q, d-1)
		}
		om.FreeVar(q)
		om.FreeVar(c)
	}

	// Warm: every page is buffered and every object resident before the
	// notes start.
	p := om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	traverse(p, depth)
	om.FreeVar(p)
	warmFaults := om.Metrics().Count(metrics.CtrObjectFault)

	noted := make(chan int64)
	go func() {
		var n int64
		for i := 0; i < rounds; i++ {
			batch := pages[i%len(pages) : i%len(pages)+1]
			om.NoteInvalidated(uint64(i), batch)
			n += int64(len(batch))
			if i == rounds/2 {
				om.NoteLeaseExpired()
			}
			time.Sleep(20 * time.Microsecond)
		}
		noted <- n
	}()
	var total int64
	for i, done := 0, false; !done; i++ {
		select {
		case total = <-noted:
			done = true
		default:
		}
		p := om.NewVar("p", b.part)
		if err := om.Load(p, b.parts[i%nParts]); err != nil {
			t.Fatal(err)
		}
		traverse(p, depth)
		om.FreeVar(p)
	}
	// One more operation applies whatever the last notes queued.
	p = om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[0]); err != nil {
		t.Fatal(err)
	}
	traverse(p, depth)
	mustVerify(t, om)
	// The lease expiry alone displaced every object, and the traversals
	// after it faulted them back.
	if faults := om.Metrics().Count(metrics.CtrObjectFault); faults < 2*warmFaults {
		t.Errorf("%d object faults after the %d of the warm traversal: the notes displaced nothing", faults-warmFaults, warmFaults)
	}
	// Each noted page is applied once; the lease expiry adds at most the
	// pages buffered when it was applied.
	if applied := om.Metrics().Count(metrics.CtrCoherenceInvalApplied); applied < total || applied > total+capacity {
		t.Errorf("%d invalidations applied for %d pages noted and one lease expiry (at most %d frames)", applied, total, capacity)
	}
}

func mustAddr(t *testing.T, mgr *storage.Manager, id oid.OID) storage.PAddr {
	t.Helper()
	addr, err := mgr.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}
