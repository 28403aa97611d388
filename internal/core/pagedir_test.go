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

// plainServer forwards the seven Server methods and nothing else, like
// the decorators object managers sit behind (the benchmark's recorder,
// the tests' counting servers). What reaches the object manager through
// it cannot depend on an optional capability.
type plainServer struct {
	inner   server.Server
	lookups int
	reads   int
}

func (s *plainServer) Lookup(id oid.OID) (storage.PAddr, error) {
	s.lookups++
	return s.inner.Lookup(id)
}
func (s *plainServer) ReadPage(pid page.PageID) ([]byte, error) {
	s.reads++
	return s.inner.ReadPage(pid)
}
func (s *plainServer) WritePage(pid page.PageID, img []byte) error {
	return s.inner.WritePage(pid, img)
}
func (s *plainServer) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	return s.inner.Allocate(seg, rec)
}
func (s *plainServer) AllocateNear(seg uint16, n oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	return s.inner.AllocateNear(seg, n, rec)
}
func (s *plainServer) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	return s.inner.UpdateObject(id, rec)
}
func (s *plainServer) NumPages(seg uint16) (int, error) { return s.inner.NumPages(seg) }

// dialBase serves the base over TCP and dials one client.
func dialBase(t *testing.T, b *testBase) (*server.TCPServer, *server.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(ln, b.srv.Manager())
	t.Cleanup(func() { srv.Close() })
	client, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return srv, client
}

// readAllParts reads every part.
func readAllParts(t *testing.T, om *OM, b *testBase) {
	t.Helper()
	p := om.NewVar("p", b.part)
	for i, id := range b.parts {
		if err := om.Load(p, id); err != nil {
			t.Fatal(err)
		}
		if got, err := om.ReadInt(p, "part-id"); err != nil || got != int64(i+1) {
			t.Fatalf("part %d: part-id = %d, %v", i, got, err)
		}
	}
}

// readAllConns reads every connection.
func readAllConns(t *testing.T, om *OM, b *testBase) {
	t.Helper()
	c := om.NewVar("c", b.conn)
	for i, ids := range b.conns {
		for k, id := range ids {
			if err := om.Load(c, id); err != nil {
				t.Fatal(err)
			}
			if got, err := om.ReadInt(c, "length"); err != nil || got != int64(k+1) {
				t.Fatalf("connection %d of part %d: length = %d, %v", k, i, got, err)
			}
		}
	}
}

// TestObjectFaultsResolveFromBufferedPages: over the pipelined wire a page
// brings its directory, and only the first object taken from a page costs
// a Lookup; behind a server that ships none the same code takes the Lookup
// for every fault.
func TestObjectFaultsResolveFromBufferedPages(t *testing.T) {
	b := buildBase(t, 200)
	_, client := dialBase(t, b)

	reg := metrics.New()
	wire := &plainServer{inner: client}
	om, err := New(Options{Server: wire, Schema: b.schema, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.LIS))
	// The connections were allocated in one go and never moved: each of
	// their pages is one extent.
	readAllConns(t, om, b)
	mustVerify(t, om)
	faults, pageFaults := reg.Count(metrics.CtrObjectFault), reg.Count(metrics.CtrPageFault)
	local, rpc := reg.Count(metrics.CtrObjectFaultLocal), reg.Count(metrics.CtrObjectFaultRPC)
	t.Logf("connections: %d object faults (%d local, %d rpc), %d page faults, %d lookups, %d index extents over %d pages",
		faults, local, rpc, pageFaults, wire.lookups, om.Pool().DirectoryExtents(), om.Pool().Len())
	if faults != 600 || local+rpc != faults {
		t.Fatalf("%d object faults = %d local + %d rpc, want 600", faults, local, rpc)
	}
	if int64(wire.lookups) != rpc || rpc != pageFaults {
		t.Errorf("%d lookups, %d rpc-resolved faults, %d page faults: want one Lookup per page, for the first object taken from it", wire.lookups, rpc, pageFaults)
	}
	if got := om.Pool().DirectoryExtents(); got != om.Pool().Len() {
		t.Errorf("%d index extents over %d clustered pages, want one each", got, om.Pool().Len())
	}

	// The parts were relocated all over their segment when buildBase grew
	// them: their pages are fragmented beyond the shipping cap, and what a
	// directory leaves out still resolves by Lookup.
	readAllParts(t, om, b)
	mustVerify(t, om)
	local, rpc = reg.Count(metrics.CtrObjectFaultLocal)-local, reg.Count(metrics.CtrObjectFaultRPC)-rpc
	t.Logf("parts: %d local, %d rpc", local, rpc)
	if local == 0 || rpc == 0 || local+rpc != 200 || int64(wire.lookups) != reg.Count(metrics.CtrObjectFaultRPC) {
		t.Errorf("fragmented pages: %d local + %d rpc faults for 200 parts, %d lookups in all", local, rpc, wire.lookups)
	}

	// The same run in process: no directories, every fault is a Lookup.
	regL := metrics.New()
	inproc := &plainServer{inner: b.srv}
	omL, err := New(Options{Server: inproc, Schema: b.schema, Metrics: regL})
	if err != nil {
		t.Fatal(err)
	}
	omL.BeginApplication(appSpec(swizzle.LIS))
	readAllConns(t, omL, b)
	mustVerify(t, omL)
	if got := regL.Count(metrics.CtrObjectFaultLocal); got != 0 || inproc.lookups != 600 || omL.Pool().DirectoryExtents() != 0 {
		t.Errorf("in process: %d local resolutions, %d lookups, %d index extents; want 0, 600, 0",
			got, inproc.lookups, omL.Pool().DirectoryExtents())
	}
}

// TestDirectoryIndexLifetime: the index holds what the buffered frames'
// directories say and nothing else — entries go with eviction, DropAll,
// Discard, invalidation and lease expiry, and come back with the page.
func TestDirectoryIndexLifetime(t *testing.T) {
	b := buildBase(t, 200)
	_, client := coherentClient(t, b)
	om, err := New(Options{Server: client, Schema: b.schema, PageBufferPages: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool := om.Pool()
	// indexed checks the index against the buffered pages, frame by frame.
	indexed := func(when string) {
		t.Helper()
		want := 0
		for _, pid := range pool.Pages() {
			dir := pool.Directory(pool.Peek(pid))
			want += dir.Len()
			for _, e := range dir.Entries() {
				if got, slot, ok := pool.Resolve(e.ID); !ok || got != pid || slot != int(e.Slot) {
					t.Fatalf("%s: page %v names %v in slot %d, the index answers %v/%d, %v", when, pid, e.ID, e.Slot, got, slot, ok)
				}
			}
		}
		if got := pool.DirectoryExtents(); got != want {
			t.Fatalf("%s: index holds %d extents, the %d buffered pages' directories %d", when, got, pool.Len(), want)
		}
	}
	om.BeginApplication(appSpec(swizzle.NOS))
	readAllParts(t, om, b) // far more pages than frames: constant eviction
	indexed("after a scan through three frames")
	if pool.DirectoryExtents() == 0 {
		t.Fatal("no directory arrived")
	}
	mustVerify(t, om)

	held := pool.Pages()
	om.NoteInvalidated(1, held[:1])
	p := om.NewVar("p", b.part)
	if err := om.Load(p, b.parts[0]); err != nil { // applies the invalidation
		t.Fatal(err)
	}
	if pool.Contains(held[0]) && held[0] != om.rot.Lookup(b.parts[0]).Page {
		t.Fatalf("invalidated page %v still buffered", held[0])
	}
	indexed("after an invalidation")

	om.NoteLeaseExpired()
	if err := om.Load(p, b.parts[1]); err != nil {
		t.Fatal(err)
	}
	indexed("after lease expiry")
	if pool.Len() > 2 {
		t.Fatalf("%d pages survived the lease", pool.Len())
	}

	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := om.Reset(); err != nil { // DropAll
		t.Fatal(err)
	}
	if got := pool.DirectoryExtents(); got != 0 || pool.Len() != 0 {
		t.Fatalf("after DropAll: %d extents over %d pages", got, pool.Len())
	}
	om.BeginApplication(appSpec(swizzle.NOS))
	readAllParts(t, om, b)
	om.Discard()
	if got := pool.DirectoryExtents(); got != 0 {
		t.Fatalf("after Discard: %d extents", got)
	}
}

// txBase serves the base transactionally with coherence on and returns
// two dialed clients.
func txBase(t *testing.T, b *testBase) (*server.TCPServer, *server.Client, *server.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(b.srv.Manager(), 2*time.Second))
	srv.EnableCoherence(server.CoherenceOptions{})
	t.Cleanup(func() { srv.Close() })
	var cs [2]*server.Client
	for i := range cs {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cs[i] = c
	}
	return srv, cs[0], cs[1]
}

// TestRelocationInvalidatesExtent extends TestTwoClientsCoherentSharing to
// an address change: A holds page P and, with it, the extent that places x
// on P. B's growing update relocates x off P and commits; the commit is
// held until A has acknowledged the invalidation of P. A's next access
// drops P and the extent with it, and x re-faults at its new address —
// first by Lookup, then, once the new page is buffered, from that page's
// directory.
func TestRelocationInvalidatesExtent(t *testing.T) {
	b := buildBase(t, 80)
	_, clientA, clientB := txBase(t, b)
	x := b.parts[0]
	mgr := b.srv.Manager()
	oldAddr, _ := mgr.Lookup(x)

	regA := metrics.New()
	omA, err := New(Options{Server: clientA, Schema: b.schema, Metrics: regA})
	if err != nil {
		t.Fatal(err)
	}
	omB, err := New(Options{Server: clientB, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}

	// A reads x in a transaction and keeps page and object hot across the
	// commit.
	if _, err := clientA.BeginTx(); err != nil {
		t.Fatal(err)
	}
	omA.BeginApplication(appSpec(swizzle.LIS))
	p := omA.NewVar("p", b.part)
	if err := omA.Load(p, x); err != nil {
		t.Fatal(err)
	}
	if n, err := omA.Card(p, "connTo"); err != nil || n != 3 {
		t.Fatalf("A: card = %d, %v", n, err)
	}
	if err := omA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := clientA.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if pid, slot, ok := omA.Pool().Resolve(x); !ok || pid != oldAddr.Page || slot != int(oldAddr.Slot) {
		t.Fatalf("A's index places x at %v/%d, %v; the server at %v", pid, slot, ok, oldAddr)
	}

	// B grows x past its page and commits.
	if _, err := clientB.BeginTx(); err != nil {
		t.Fatal(err)
	}
	omB.BeginApplication(appSpec(swizzle.NOS))
	growPart(t, omB, b, 450)
	if err := omB.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := clientB.CommitTx(); err != nil {
		t.Fatal(err)
	}
	newAddr, _ := mgr.Lookup(x)
	if newAddr.Page == oldAddr.Page {
		t.Fatal("the growing update did not relocate x")
	}
	mustVerify(t, omB)

	// A: the acknowledged invalidation is applied on entry; nothing of the
	// old address survives it.
	if _, err := clientA.BeginTx(); err != nil {
		t.Fatal(err)
	}
	omA.BeginApplication(appSpec(swizzle.LIS))
	p = omA.NewVar("p", b.part)
	rpcBefore := regA.Count(metrics.CtrObjectFaultRPC)
	if err := omA.Load(p, x); err != nil {
		t.Fatal(err)
	}
	if n, err := omA.Card(p, "connTo"); err != nil || n != 453 {
		t.Fatalf("A after B's commit: card = %d, %v (stale extent served?)", n, err)
	}
	if obj := omA.rot.Lookup(x); obj.Page != newAddr.Page || obj.Slot != newAddr.Slot {
		t.Fatalf("A re-faulted x at %v/%d, the server has it at %v", obj.Page, obj.Slot, newAddr)
	}
	if got := regA.Count(metrics.CtrObjectFaultRPC) - rpcBefore; got != 1 {
		t.Errorf("%d rpc-resolved faults for the re-fault, want 1", got)
	}
	if regA.Count(metrics.CtrCoherenceInvalApplied) < 1 {
		t.Error("no invalidation applied")
	}
	mustVerify(t, omA)

	// Displaced and faulted again, x now resolves from its new page.
	omA.FreeVar(p)
	if err := omA.DisplaceObject(x); err != nil {
		t.Fatal(err)
	}
	localBefore := regA.Count(metrics.CtrObjectFaultLocal)
	p = omA.NewVar("p", b.part)
	if err := omA.Load(p, x); err != nil {
		t.Fatal(err)
	}
	if n, err := omA.Card(p, "connTo"); err != nil || n != 453 {
		t.Fatalf("A, second fault: card = %d, %v", n, err)
	}
	if got := regA.Count(metrics.CtrObjectFaultLocal) - localBefore; got != 1 {
		t.Errorf("%d locally resolved faults for the second fault, want 1", got)
	}
	mustVerify(t, omA)
	if err := omA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := clientA.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectRelocationInvalidatesOldPage is the raw-client half of
// TestRelocationInvalidatesExtent: a raw client's UpdateObject grows x off
// its page outside any transaction, so it commits as a transaction of its
// own and the invalidation comes from that commit's X-lock set. It must
// name the page x
// left as well as the one x moved to: A buffers the old page, whose
// directory still places x in the slot the relocation vacated, and would
// otherwise resolve x's next fault from it.
func TestDirectRelocationInvalidatesOldPage(t *testing.T) {
	b := buildBase(t, 80)
	_, clientA, raw := txBase(t, b)
	x := b.parts[0]
	mgr := b.srv.Manager()
	oldAddr, _ := mgr.Lookup(x)

	omA, err := New(Options{Server: clientA, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	readCard := func(want int) {
		t.Helper()
		omA.BeginApplication(appSpec(swizzle.LIS))
		p := omA.NewVar("p", b.part)
		if err := omA.Load(p, x); err != nil {
			t.Fatal(err)
		}
		if n, err := omA.Card(p, "connTo"); err != nil || n != want {
			t.Fatalf("A: card = %d, %v; want %d", n, err, want)
		}
		if err := omA.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	readCard(3)
	if pid, _, ok := omA.Pool().Resolve(x); !ok || pid != oldAddr.Page {
		t.Fatalf("A's index places x on %v, %v; the server on %v", pid, ok, oldAddr.Page)
	}

	// 450 more references: x no longer fits next to its siblings.
	rec, _, err := mgr.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := object.Decode(b.schema, x, rec)
	if err != nil {
		t.Fatal(err)
	}
	connTo := grown.Type.FieldIndex("connTo")
	for i := 0; i < 450; i++ {
		grown.Append(connTo, object.OIDRef(b.conns[(i/3)%len(b.conns)][i%3]))
	}
	if rec, err = object.Encode(grown); err != nil {
		t.Fatal(err)
	}
	newAddr, err := raw.UpdateObject(x, rec)
	if err != nil {
		t.Fatal(err)
	}
	if newAddr.Page == oldAddr.Page {
		t.Fatal("the growing update did not relocate x")
	}

	// x out of A's object table — where the acknowledged invalidation has
	// not taken it out already — so the next access faults it again.
	if err := omA.DisplaceObject(x); err != nil && omA.IsResident(x) {
		t.Fatal(err)
	}
	readCard(453)
	if pid, _, ok := omA.Pool().Resolve(x); !ok || pid != newAddr.Page {
		t.Errorf("A's index places x on %v, %v; the server on %v", pid, ok, newAddr.Page)
	}
	mustVerify(t, omA)
}

// TestResidentTransactionIsSilent: a transaction whose body touches only
// resident objects asks the server for nothing, so neither its begin nor
// its commit reaches the server; the first transaction, which faults, sends
// exactly one of each.
func TestResidentTransactionIsSilent(t *testing.T) {
	b := buildBase(t, 80)
	srv, client, _ := txBase(t, b)
	srvReg := metrics.New()
	srv.SetMetrics(srvReg)
	om, err := New(Options{Server: client, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	lookupTx := func() {
		t.Helper()
		if _, err := client.BeginTx(); err != nil {
			t.Fatal(err)
		}
		om.BeginApplication(appSpec(swizzle.LIS))
		p := om.NewVar("p", b.part)
		for _, id := range b.parts[:10] {
			if err := om.Load(p, id); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(p, "x"); err != nil {
				t.Fatal(err)
			}
		}
		if err := om.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := client.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}
	boundaries := func() (begins, commits int64) {
		snap := srvReg.Snapshot()
		return snap.RPC[metrics.RPCTxBegin].Count, snap.RPC[metrics.RPCTxCommit].Count
	}
	lookupTx()
	if begins, commits := boundaries(); begins != 1 || commits != 1 {
		t.Fatalf("the faulting transaction: server_rpc{tx_begin} = %d, {tx_commit} = %d; want 1 and 1", begins, commits)
	}
	for i := 0; i < 20; i++ {
		lookupTx()
	}
	if begins, commits := boundaries(); begins != 1 || commits != 1 {
		t.Errorf("after 20 more transactions over resident objects: server_rpc{tx_begin} = %d, {tx_commit} = %d; want them still at 1", begins, commits)
	}
	mustVerify(t, om)
}

// TestConcurrentFaultsShareOneBegin: the object manager faults many pages
// inside a transaction whose begin is still deferred. One begin reaches the
// server, ahead of every fault: each page read took its S-lock in that
// transaction, so until the commit nobody else can write any page a part
// came from. (Goroutines sharing one connection's deferred begin are
// server.TestLazyBeginSharedClient's.)
func TestConcurrentFaultsShareOneBegin(t *testing.T) {
	b := buildBase(t, 80)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := b.srv.Manager()
	txs := server.NewTxServer(mgr, 50*time.Millisecond)
	srv := server.ServeTx(ln, txs)
	defer srv.Close()
	srvReg := metrics.New()
	srv.SetMetrics(srvReg)
	dial := func() *server.Client {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	client, other := dial(), dial()
	om, err := New(Options{Server: client, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.BeginTx(); err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.LIS))
	p := om.NewVar("p", b.part)
	for _, id := range b.parts {
		if err := om.Load(p, id); err != nil {
			t.Fatal(err)
		}
		if _, err := om.ReadInt(p, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := srvReg.Snapshot()
	if begins := snap.RPC[metrics.RPCTxBegin].Count; begins != 1 {
		t.Errorf("server_rpc{tx_begin} = %d, want 1", begins)
	}
	if live := txs.Live(); live != 1 {
		t.Errorf("%d transactions live at the server, want 1", live)
	}
	pages := map[page.PageID]bool{}
	for _, id := range b.parts {
		addr, _ := mgr.Lookup(id)
		pages[addr.Page] = true
	}
	if _, err := other.BeginTx(); err != nil {
		t.Fatal(err)
	}
	for pid := range pages {
		img, err := mgr.Disk().ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.WritePage(pid, img); err == nil {
			t.Errorf("page %v was written under the reader: its fault ran outside the transaction", pid)
		}
	}
	if err := other.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if err := client.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if live := txs.Live(); live != 0 {
		t.Errorf("%d transactions live after the commit", live)
	}
	mustVerify(t, om)
}

// TestAbortedAllocationLeavesNoExtent: a transaction creates an object and
// aborts; neither the server's directory nor, after Discard, the client's
// index names it, and the slot it had is free for the next object.
func TestAbortedAllocationLeavesNoExtent(t *testing.T) {
	b := buildBase(t, 20)
	_, client, other := txBase(t, b)
	mgr := b.srv.Manager()

	om, err := New(Options{Server: client, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.BeginTx(); err != nil {
		t.Fatal(err)
	}
	om.BeginApplication(appSpec(swizzle.LIS))
	v := om.NewVar("v", b.part)
	if err := om.Create(b.part, 0, v); err != nil {
		t.Fatal(err)
	}
	id, _ := om.OID(v)
	addr, err := mgr.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if pid, slot, ok := om.Pool().Resolve(id); !ok || pid != addr.Page || slot != int(addr.Slot) {
		t.Fatalf("the creating client's index places the new object at %v/%d, %v; the server at %v", pid, slot, ok, addr)
	}
	mustVerify(t, om)
	if err := client.AbortTx(); err != nil {
		t.Fatal(err)
	}
	om.Discard()

	if _, err := mgr.Lookup(id); err == nil {
		t.Fatal("the aborted object is still in the POT")
	}
	if _, dir, _ := mgr.Disk().ReadPageDir(addr.Page); func() bool { _, ok := dir.Find(id); return ok }() {
		t.Fatalf("page %v still names the aborted object", addr.Page)
	}
	if err := mgr.VerifyDirectories(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := om.Pool().Resolve(id); ok || om.Pool().DirectoryExtents() != 0 {
		t.Fatal("the client's index survived Discard")
	}
	// Another client reads the page: its directory does not name the
	// aborted OID either.
	om2, err := New(Options{Server: other, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	om2.BeginApplication(appSpec(swizzle.NOS))
	if _, err := om2.Pool().Get(addr.Page); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := om2.Pool().Resolve(id); ok {
		t.Fatal("a fresh read of the page names the aborted object")
	}
}

// TestStaleAddressHint relocates an object between the batched lookup that
// produced its address hint and the fault that consumes it, and lets
// another object of the same type take over the slot — the case a decode
// cannot catch. The hint must not survive the invalidation of its page,
// nor a Commit; and where the page arrives with a directory, the directory
// refuses the hint even without an invalidation.
func TestStaleAddressHint(t *testing.T) {
	t.Run("invalidated", func(t *testing.T) {
		b := buildBase(t, 40)
		staleAddressHint(t, b, b.om(t, Options{PageBufferPages: 8}), true)
	})
	t.Run("refused by the directory", func(t *testing.T) {
		b := buildBase(t, 40)
		_, client := dialBase(t, b)
		om, err := New(Options{Server: client, Schema: b.schema, PageBufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		staleAddressHint(t, b, om, false)
	})
}

func staleAddressHint(t *testing.T, b *testBase, om *OM, invalidate bool) {
	mgr := b.srv.Manager()
	om.BeginApplication(appSpec(swizzle.NOS))

	// A part's three connection references, resolved in one batch.
	home := om.NewVar("home", b.part)
	if err := om.Load(home, b.parts[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := om.ReadInt(home, "x"); err != nil {
		t.Fatal(err)
	}
	obj := om.rot.Lookup(b.parts[5])
	var slots []object.Slot
	obj.Refs(func(s object.Slot) { slots = append(slots, s) })
	prime := func(id oid.OID) storage.PAddr {
		t.Helper()
		om.primeHints(slots)
		hint, ok := om.addrHints[id]
		if !ok {
			t.Fatalf("primeHints left no hint for %v", id)
		}
		return hint
	}
	x := b.conns[5][0]
	hint := prime(x)

	// Behind the client's back: x moves away, and a different connection
	// record is put into the slot it had.
	rec, _, err := mgr.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	big := append(append([]byte(nil), rec...), make([]byte, 3000)...)
	if _, err := mgr.Update(x, big); err != nil { // grows: relocates
		t.Fatal(err)
	}
	if _, err := mgr.Update(x, rec); err != nil { // back to a decodable record
		t.Fatal(err)
	}
	moved, _ := mgr.Lookup(x)
	if moved.Page == hint.Page {
		t.Fatal("x did not relocate")
	}
	other, _, err := mgr.Read(b.conns[6][2]) // a connection of length 3
	if err != nil {
		t.Fatal(err)
	}
	_, taken, err := mgr.AllocateNear(hint.Page.Segment(), b.conns[5][1], other)
	if err != nil || taken != hint {
		t.Fatalf("the impostor landed at %v, %v; want x's old address %v", taken, err, hint)
	}

	// The page's invalidation arrives; the next operation applies it, and
	// the hint goes with the page.
	if invalidate {
		om.NoteInvalidated(1, []page.PageID{hint.Page})
	}
	c := om.NewVar("c", b.conn)
	if err := om.Load(c, x); err != nil {
		t.Fatal(err)
	}
	if got, err := om.ReadInt(c, "length"); err != nil || got != 1 {
		t.Fatalf("x read through a stale hint: length = %d, %v (the impostor has 3)", got, err)
	}
	if got := om.rot.Lookup(x); got.Page != moved.Page || got.Slot != moved.Slot {
		t.Fatalf("x faulted at %v/%d, the server has it at %v", got.Page, got.Slot, moved)
	}
	mustVerify(t, om)

	// Hints do not outlive the transaction either. (Over TCP x's new page
	// is buffered with its directory by now, and there is nothing left to
	// batch-resolve.)
	if !invalidate {
		return
	}
	if err := om.DisplaceObject(x); err != nil {
		t.Fatal(err)
	}
	prime(x)
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := len(om.addrHints); n != 0 {
		t.Fatalf("%d hints survived Commit", n)
	}
}
