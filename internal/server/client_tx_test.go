package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

// quietBase is a transactional, coherence-enabled server over one segment
// holding n objects a page to themselves each (3,000-byte records), with a
// registry on the server and one on the dialed client.
type quietBase struct {
	srv    *TCPServer
	tx     *TxServer
	mgr    *storage.Manager
	srvReg *metrics.Registry
	c      *Client
	reg    *metrics.Registry
	ids    []oid.OID
	addrs  []storage.PAddr
}

func newQuietBase(t *testing.T, n int, opts DialOptions) *quietBase {
	t.Helper()
	b := &quietBase{mgr: newMgr(t), srvReg: metrics.New(), reg: metrics.New()}
	for i := 0; i < n; i++ {
		rec := make([]byte, 3000)
		rec[0] = byte(i)
		id, addr, err := b.mgr.Allocate(0, rec)
		if err != nil {
			t.Fatal(err)
		}
		b.ids, b.addrs = append(b.ids, id), append(b.addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.tx = NewTxServer(b.mgr, time.Second)
	b.srv = ServeTx(ln, b.tx)
	b.srv.EnableCoherence(CoherenceOptions{})
	b.srv.SetMetrics(b.srvReg)
	t.Cleanup(func() { b.srv.Close() })
	b.c = b.dial(t, opts, b.reg)
	return b
}

func (b *quietBase) dial(t *testing.T, opts DialOptions, reg *metrics.Registry) *Client {
	t.Helper()
	opts.Metrics = reg
	c, err := DialWith(b.srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sent is the number of request frames of one opcode the client has put on
// the wire, from its registry — frames, not calls.
func sent(reg *metrics.Registry, op metrics.RPCOp) int64 { return reg.Snapshot().RPCFrames[1][op] }

// sentTotal is sent over every opcode.
func sentTotal(reg *metrics.Registry) (n int64) {
	for _, f := range reg.Snapshot().RPCFrames[1] {
		n += f
	}
	return n
}

// recordAt reads the object's record out of a page read and returns its
// first byte (newQuietBase numbers the records there).
func recordAt(b []byte, slot uint16) (byte, error) {
	p, err := pageOf(b)
	if err != nil {
		return 0, err
	}
	rec, err := p.Read(int(slot))
	if err != nil {
		return 0, err
	}
	return rec[0], nil
}

func firstByteAt(t *testing.T, b []byte, slot uint16) byte {
	t.Helper()
	first, err := recordAt(b, slot)
	if err != nil {
		t.Fatal(err)
	}
	return first
}

// stagedCount is the number of pages in the client's staging area.
func stagedCount(c *Client) int {
	c.stageMu.Lock()
	defer c.stageMu.Unlock()
	return len(c.staged)
}

// TestLazyBeginSilentTransaction: a transaction that asks the server for
// nothing — what a lookup transaction over resident objects is — puts no
// frame on the wire and leaves no trace on the server; the boundary calls
// still keep their contract locally.
func TestLazyBeginSilentTransaction(t *testing.T) {
	b := newQuietBase(t, 1, DialOptions{})
	var last TxID
	for i := 0; i < 100; i++ {
		id, err := b.c.BeginTx()
		if err != nil || id == 0 || id <= last {
			t.Fatalf("BeginTx %d = %d, %v; want a fresh non-zero handle", i, id, err)
		}
		last = id
		if _, err := b.c.BeginTx(); err == nil {
			t.Fatal("a second BeginTx inside a deferred transaction succeeded")
		}
		if _, _, err := b.c.BeginSnapshotTx(); err == nil {
			t.Fatal("BeginSnapshotTx inside a deferred transaction succeeded")
		}
		end := b.c.CommitTx
		if i%2 == 1 {
			end = b.c.AbortTx
		}
		if err := end(); err != nil {
			t.Fatal(err)
		}
	}
	if n := sentTotal(b.reg); n != 0 {
		t.Errorf("%d frames sent for 100 transactions with nothing to say, want 0", n)
	}
	snap := b.srvReg.Snapshot()
	for _, op := range []metrics.RPCOp{metrics.RPCTxBegin, metrics.RPCTxCommit, metrics.RPCTxAbort} {
		if got := snap.RPC[op].Count; got != 0 {
			t.Errorf("server_rpc{%v} = %d, want 0", op, got)
		}
	}
	if got := b.reg.Count(metrics.CtrTxSilent); got != 100 {
		t.Errorf("tx_silent = %d, want 100", got)
	}
	if live := b.tx.Live(); live != 0 {
		t.Errorf("%d transactions live on the server", live)
	}
	// Outside a transaction the boundary calls still reach the server,
	// which refuses them.
	if err := b.c.CommitTx(); err == nil {
		t.Error("CommitTx without a transaction succeeded")
	}
	if sent(b.reg, metrics.RPCTxCommit) != 1 {
		t.Error("CommitTx without a transaction was not sent")
	}
}

// requestOps walks a recorded client-to-server stream past its hello and
// returns the opcode of every request frame.
func requestOps(t *testing.T, stream []byte) []byte {
	t.Helper()
	var ops []byte
	for first := true; len(stream) > 0; first = false {
		if len(stream) < 5 {
			t.Fatalf("stream ends inside a frame header: %x", stream)
		}
		n := int(binary.LittleEndian.Uint32(stream))
		if len(stream) < 4+n {
			t.Fatalf("stream ends inside a frame of %d bytes", n)
		}
		if !first {
			ops = append(ops, stream[4])
		}
		stream = stream[4+n:]
	}
	return ops
}

// TestLazyBeginSharedClient: goroutines sharing one client — object
// managers in goroutines of their own over one connection — fault at once
// inside a transaction whose begin is still deferred. Exactly one begin frame goes
// out, and it is the first frame of the transaction: nobody's data request
// reaches the server outside it.
func TestLazyBeginSharedClient(t *testing.T) {
	const workers = 8
	b := newQuietBase(t, workers, DialOptions{})
	c, recorded := recordedDial(t, b.srv)
	for round := 0; round < 3; round++ {
		if _, err := c.BeginTx(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				addr, err := c.Lookup(b.ids[g])
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				got, err := c.ReadPage(addr.Page)
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
				if first, err := recordAt(got, addr.Slot); err != nil || first != byte(g) {
					t.Errorf("worker %d read record %d, %v", g, first, err)
				}
			}(g)
		}
		wg.Wait()
		if live := b.tx.Live(); live != 1 {
			t.Fatalf("round %d: %d transactions live on the server, want 1", round, live)
		}
		if err := c.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	toServer, _ := recorded()
	ops := requestOps(t, toServer)
	begins, inTx := 0, false
	for i, op := range ops {
		switch op {
		case opTxBegin:
			begins++
			if inTx {
				t.Errorf("frame %d: a second begin inside one transaction", i)
			}
			inTx = true
		case opTxCommit:
			inTx = false
		default:
			if !inTx {
				t.Errorf("frame %d: opcode %d reached the server outside the transaction", i, op)
			}
		}
	}
	if begins != 3 {
		t.Errorf("%d begin frames for 3 transactions", begins)
	}
}

// TestLazyBeginFailureSurfacesOnData: when the server refuses the begin
// that rode on a data request, the data call reports it — and the client
// is left without a transaction, so an AbortTx still reaches the server.
func TestLazyBeginFailureSurfacesOnData(t *testing.T) {
	b := newQuietBase(t, 1, DialOptions{})
	if _, err := b.c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.c.Lookup(b.ids[0]); err != nil {
		t.Fatal(err)
	}
	// The client forgets the transaction the server still holds, so the
	// next deferred begin is one the server must refuse.
	b.c.setTx(txNone)
	if _, err := b.c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	_, err := b.c.Lookup(b.ids[0])
	if err == nil || !strings.Contains(err.Error(), errTxOpen.Error()) {
		t.Fatalf("Lookup carrying a refused begin = %v, want the server's refusal", err)
	}
	if got := sent(b.reg, metrics.RPCTxBegin); got != 2 {
		t.Errorf("%d begin frames sent, want 2", got)
	}
	if err := b.c.AbortTx(); err != nil {
		t.Fatalf("AbortTx after the refused begin: %v", err)
	}
	if live := b.tx.Live(); live != 0 {
		t.Errorf("%d transactions live after the abort", live)
	}
	if _, err := b.c.BeginTx(); err != nil {
		t.Errorf("BeginTx after recovery: %v", err)
	}
}

// TestLazyBeginDroppedSend: the rpc.send fault site drops the begin or the
// data request that would carry it. Either way nothing ships, the data
// call fails with ErrTransient, the begin stays deferred, and the retry
// carries it.
func TestLazyBeginDroppedSend(t *testing.T) {
	defer faultpoint.Reset()
	for _, tc := range []struct {
		name  string
		after int
	}{{"begin dropped", 0}, {"data dropped", 1}} {
		b := newQuietBase(t, 1, DialOptions{})
		if _, err := b.c.BeginTx(); err != nil {
			t.Fatal(err)
		}
		faultpoint.Arm(faultpoint.Fault{Site: faultpoint.RPCSend, After: tc.after, Times: 1})
		if _, err := b.c.Lookup(b.ids[0]); !errors.Is(err, ErrTransient) {
			t.Fatalf("%s: Lookup = %v, want ErrTransient", tc.name, err)
		}
		if n := sentTotal(b.reg); n != 0 {
			t.Errorf("%s: %d frames sent by the dropped attempt", tc.name, n)
		}
		faultpoint.Reset()
		if _, err := b.c.Lookup(b.ids[0]); err != nil {
			t.Fatalf("%s: retry: %v", tc.name, err)
		}
		if begins, live := sent(b.reg, metrics.RPCTxBegin), b.tx.Live(); begins != 1 || live != 1 {
			t.Errorf("%s: after the retry %d begin frames, %d live transactions; want 1 and 1", tc.name, begins, live)
		}
		if err := b.c.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}

	// With retries configured the caller never sees the drop.
	b := newQuietBase(t, 1, DialOptions{RetryAttempts: 2, RetryBackoff: time.Millisecond})
	if _, err := b.c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.RPCSend, Times: 1})
	if _, err := b.c.Lookup(b.ids[0]); err != nil {
		t.Fatalf("Lookup with retries: %v", err)
	}
	if begins := sent(b.reg, metrics.RPCTxBegin); begins != 1 {
		t.Errorf("%d begin frames with a retried drop, want 1", begins)
	}
}

// TestLazyBeginFailedCommitStaysOpen: a CommitTx that fails leaves the
// client's transaction open, so the AbortTx that follows is sent and the
// server rolls the transaction back.
func TestLazyBeginFailedCommitStaysOpen(t *testing.T) {
	defer faultpoint.Reset()
	b := newQuietBase(t, 1, DialOptions{})
	if _, err := b.c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	id, _, err := b.c.Allocate(0, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.RPCSend, Times: 1})
	if err := b.c.CommitTx(); !errors.Is(err, ErrTransient) {
		t.Fatalf("CommitTx with its send dropped = %v, want ErrTransient", err)
	}
	if _, err := b.c.BeginTx(); err == nil {
		t.Error("BeginTx succeeded while the failed commit's transaction is open")
	}
	if err := b.c.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if got := b.srvReg.Snapshot().RPC[metrics.RPCTxAbort].Count; got != 1 {
		t.Errorf("server_rpc{tx_abort} = %d, want 1", got)
	}
	if _, err := b.mgr.Lookup(id); err == nil {
		t.Error("the aborted allocation is visible")
	}
	if live := b.tx.Live(); live != 0 {
		t.Errorf("%d transactions live after the abort", live)
	}
}

// TestLazyBeginRenewsLease: a reader whose transactions all end silently
// would never hear from the server again. With a lease armed, a BeginTx
// that finds the connection quiet for half the lease goes out at once, so
// the lease is renewed and never expires.
func TestLazyBeginRenewsLease(t *testing.T) {
	const lease = 300 * time.Millisecond
	b := newQuietBase(t, 1, DialOptions{LeaseTimeout: lease})
	expired := make(chan struct{}, 1)
	b.c.OnLeaseExpired(func() {
		select {
		case expired <- struct{}{}:
		default:
		}
	})
	txs := 0
	for start := time.Now(); time.Since(start) < 3*lease; txs++ {
		if _, err := b.c.BeginTx(); err != nil {
			t.Fatal(err)
		}
		if err := b.c.CommitTx(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-expired:
		t.Error("the lease handler fired on a reader that kept beginning transactions")
	default:
	}
	if got := b.reg.Count(metrics.CtrCoherenceLeaseExpired); got != 0 {
		t.Errorf("coherence_lease_expired = %d, want 0", got)
	}
	begins := sent(b.reg, metrics.RPCTxBegin)
	if begins < 2 || begins > int64(txs)/4 {
		t.Errorf("%d begin frames for %d silent transactions over three lease periods: want a few renewals, not one a transaction", begins, txs)
	}
	if commits := sent(b.reg, metrics.RPCTxCommit); commits != begins {
		t.Errorf("%d commit frames for %d begins sent", commits, begins)
	}
}

// TestStagedPageServesReadPage: the page a Lookup answer brings is what
// the next ReadPage of that page returns, without a frame; it is handed
// out once, and dropped by the end of the transaction, by this client's
// own write, by lease expiry and by Close.
func TestStagedPageServesReadPage(t *testing.T) {
	b := newQuietBase(t, 2, DialOptions{})
	c, reg := b.c, b.reg
	pid := b.addrs[0].Page
	lookup := func() {
		t.Helper()
		if addr, err := c.Lookup(b.ids[0]); err != nil || addr != b.addrs[0] {
			t.Fatalf("Lookup = %v, %v; want %v", addr, err, b.addrs[0])
		}
	}
	// readPage reads the page and reports whether a frame went out for it.
	readPage := func() bool {
		t.Helper()
		before := sent(reg, metrics.RPCReadPage)
		got, err := c.ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if first := firstByteAt(t, got, b.addrs[0].Slot); first != 0 {
			t.Fatalf("page read holds record %d", first)
		}
		if _, dir, _ := page.SplitImage(got); dir.Len() != 1 {
			t.Fatalf("page read carries %d extents, want 1", dir.Len())
		}
		return sent(reg, metrics.RPCReadPage) != before
	}

	lookup()
	if readPage() {
		t.Error("ReadPage after Lookup went to the wire")
	}
	if !readPage() {
		t.Error("a staged page was handed out twice")
	}
	if staged, taken := reg.Count(metrics.CtrLookupPageStaged), reg.Count(metrics.CtrLookupPageTaken); staged != 1 || taken != 1 {
		t.Errorf("lookup_page_staged = %d, lookup_page_taken = %d; want 1 and 1", staged, taken)
	}

	for name, drop := range map[string]func() error{
		"CommitTx": func() error { return c.CommitTx() },
		"AbortTx":  func() error { return c.AbortTx() },
		"own write": func() error {
			_, _, err := c.Allocate(0, []byte("x"))
			return err
		},
		"lease expiry": func() error {
			c.leaseFired.Store(false)
			c.fireLease()
			return nil
		},
	} {
		if _, err := c.BeginTx(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lookup()
		if err := drop(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !readPage() {
			t.Errorf("a page staged before %s was served after it", name)
		}
		// Whichever state the case left, the next one starts clean; with
		// no transaction left the server refuses this, which is fine.
		_ = c.AbortTx()
	}

	lookup()
	c.Close()
	if n := stagedCount(c); n != 0 {
		t.Errorf("%d pages staged on a closed client", n)
	}
}

// TestStagedPageInvalidated: an invalidation that names a staged page
// arrives between Lookup and ReadPage. The staged copy is gone before the
// push is acknowledged — so before the writer returns — and ReadPage goes
// to the wire for the new image.
func TestStagedPageInvalidated(t *testing.T) {
	b := newQuietBase(t, 2, DialOptions{})
	writer := b.dial(t, DialOptions{}, nil)
	addr, err := b.c.Lookup(b.ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// An invalidation that names another page the client read leaves it
	// alone.
	other, err := b.c.ReadPage(b.addrs[1].Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.WritePage(b.addrs[1].Page, imageOf(t, other)); err != nil {
		t.Fatal(err)
	}
	if n, pushes := stagedCount(b.c), b.reg.Count(metrics.CtrCoherenceInvalRecv); n != 1 || pushes != 1 {
		t.Fatalf("%d pages staged after %d pushes for another page, want 1 and 1", n, pushes)
	}
	rec := make([]byte, 3000)
	rec[0] = 0xee
	if _, err := writer.UpdateObject(b.ids[0], rec); err != nil {
		t.Fatal(err)
	}
	// The writer is back, so the push was acknowledged.
	if n := stagedCount(b.c); n != 0 {
		t.Fatalf("%d pages staged after the invalidation was acknowledged", n)
	}
	got, err := b.c.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if first := firstByteAt(t, got, addr.Slot); first != 0xee {
		t.Errorf("ReadPage after the invalidation holds record %#x, want the new one", first)
	}
	if frames := sent(b.reg, metrics.RPCReadPage); frames != 2 {
		t.Errorf("%d ReadPage frames, want 2: the other page, and this one after its invalidation", frames)
	}
	if taken := b.reg.Count(metrics.CtrLookupPageTaken); taken != 0 {
		t.Errorf("lookup_page_taken = %d, want 0", taken)
	}
}

// TestStagedPageAddressOnly: where nothing would cover a staged copy, or
// the client may hold the page already, the Lookup answer is the address
// alone — a connection without callbacks outside any transaction, and an
// object the shipped part of the directory does not name. A snapshot's read
// point covers the copy as a 2PL session's S-lock does: its Lookup stages
// the page.
func TestStagedPageAddressOnly(t *testing.T) {
	mgr, ids := fragmentedMgr(t)
	named, capped := ids[0], ids[len(ids)-1]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, time.Second))
	defer srv.Close()
	dial := func() (*Client, *metrics.Registry) {
		t.Helper()
		reg := metrics.New()
		c, err := DialWith(srv.Addr().String(), DialOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, reg
	}
	// staged runs one Lookup and reports whether its answer brought a page.
	staged := func(c *Client, reg *metrics.Registry, id oid.OID) bool {
		t.Helper()
		before := reg.Count(metrics.CtrLookupPageStaged)
		want, _ := mgr.Lookup(id)
		if addr, err := c.Lookup(id); err != nil || addr != want {
			t.Fatalf("Lookup(%v) = %v, %v; want %v", id, addr, err, want)
		}
		return reg.Count(metrics.CtrLookupPageStaged) != before
	}

	plain, plainReg := dial()
	if staged(plain, plainReg, named) {
		t.Error("a connection without callbacks got a page outside any transaction")
	}
	if _, err := plain.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if !staged(plain, plainReg, named) {
		t.Error("inside a transaction the S-lock covers the page, yet none came")
	}
	if err := plain.CommitTx(); err != nil {
		t.Fatal(err)
	}

	srv.EnableCoherence(CoherenceOptions{})
	c, reg := dial()
	if !staged(c, reg, named) {
		t.Error("a connection with callbacks got no page")
	}
	if staged(c, reg, capped) {
		t.Error("a page came for an object its shipped directory does not name")
	}
	if _, _, err := c.BeginSnapshotTx(); err != nil {
		t.Fatal(err)
	}
	if !staged(c, reg, named) {
		t.Error("a snapshot Lookup brought no page")
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// TestStagedPageBound: the staging area holds at most maxStaged pages; one
// more pushes the oldest out.
func TestStagedPageBound(t *testing.T) {
	b := newQuietBase(t, maxStaged+3, DialOptions{})
	for _, id := range b.ids {
		if _, err := b.c.Lookup(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := stagedCount(b.c); n != maxStaged {
		t.Fatalf("%d pages staged, want the bound %d", n, maxStaged)
	}
	if got := b.c.takeStaged(b.addrs[0].Page); got != nil {
		t.Error("the oldest page survived the bound")
	}
	if got := b.c.takeStaged(b.addrs[len(b.addrs)-1].Page); got == nil {
		t.Error("the newest page is not staged")
	}
}

// movedBackend is a live backend whose first staleFor Lookups answer with
// an address the object has already left — what a reader sees when a
// relocation lands between the POT lookup and the page read.
type movedBackend struct {
	*Local
	stale    storage.PAddr
	staleFor int
	calls    int
}

func (m *movedBackend) Lookup(id oid.OID) (storage.PAddr, error) {
	m.calls++
	if m.calls <= m.staleFor {
		return m.stale, nil
	}
	return m.Local.Lookup(id)
}

// TestStagedPageRelocatedUnderLookup: when the page read under a Lookup
// does not name the object where the POT put it, the server resolves the
// address again and ships the page the object is on now; the retries are
// bounded, and past them the answer is the last address alone.
func TestStagedPageRelocatedUnderLookup(t *testing.T) {
	b := newQuietBase(t, 2, DialOptions{})
	cc := &cohConn{id: 99}
	backend := &movedBackend{Local: NewLocal(b.mgr), stale: b.addrs[1], staleFor: 1}
	f := getFrame()
	defer putFrame(f)
	first, _ := backend.Lookup(b.ids[0])
	if err := b.srv.lookupPage(backend, cc, b.ids[0], first, f); err != nil {
		t.Fatal(err)
	}
	if backend.calls != 2 {
		t.Errorf("%d Lookups at the backend, want 2", backend.calls)
	}
	if got := getPAddr(f.inline); got != b.addrs[0] {
		t.Errorf("answered %v, the object is at %v", got, b.addrs[0])
	}
	want, _, _ := b.mgr.Disk().ReadPageDir(b.addrs[0].Page)
	if len(f.pages) != 2 || !bytes.Equal(f.pages[0], want) {
		t.Errorf("the answer carries %d pieces, want the image of %v and its directory", len(f.pages), b.addrs[0].Page)
	}

	unsettled := &movedBackend{Local: NewLocal(b.mgr), stale: b.addrs[1], staleFor: 1 << 30}
	f2 := getFrame()
	defer putFrame(f2)
	first, _ = unsettled.Lookup(b.ids[0])
	if err := b.srv.lookupPage(unsettled, cc, b.ids[0], first, f2); err != nil {
		t.Fatal(err)
	}
	if unsettled.calls != lookupResolves+1 || len(f2.pages) != 0 || getPAddr(f2.inline) != b.addrs[1] {
		t.Errorf("an object that keeps moving: %d Lookups, %d pieces behind address %v; want %d, 0, %v",
			unsettled.calls, len(f2.pages), getPAddr(f2.inline), lookupResolves+1, b.addrs[1])
	}
}

// TestStagedPageMalformedAnswer: a Lookup answer whose page part is not a
// well-formed page read fails that Lookup with a protocol error, stages
// nothing, and leaves the connection serving.
func TestStagedPageMalformedAnswer(t *testing.T) {
	img := page.New(page.NewPageID(1, 0)).CloneImage()
	addr := make([]byte, 10)
	putPAddr(addr, storage.PAddr{Page: page.NewPageID(1, 0), Slot: 3})
	answers := [][]byte{
		append(append([]byte(nil), addr...), img[:page.Size/2]...), // cut inside the image
		append(append(append([]byte(nil), addr...), img...), 1, 2), // a fraction of an extent
		addr[:6], // cut inside the address
		append(append([]byte(nil), addr...), img...),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, _, err := readMsg(r); err != nil {
			return
		}
		conn.Write(frame(t, statusOK, helloPayload(protocolV2, baselineFeatures)))
		for _, answer := range answers {
			_, req, err := readMsg(r)
			if err != nil {
				return
			}
			conn.Write(frame(t, statusOK, append(append([]byte(nil), req[:8]...), answer...)))
		}
	}()
	c, err := DialWith(ln.Addr().String(), DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range answers[:3] {
		if _, err := c.Lookup(oid.MustNew(1, 1)); !errors.Is(err, errProtocol) {
			t.Errorf("malformed answer %d: Lookup = %v, want a protocol error", i, err)
		}
	}
	if n := stagedCount(c); n != 0 {
		t.Fatalf("%d pages staged from malformed answers", n)
	}
	got, err := c.Lookup(oid.MustNew(1, 1))
	if err != nil || got.Slot != 3 || stagedCount(c) != 1 {
		t.Errorf("the well-formed answer after them: %v, %v, %d staged", got, err, stagedCount(c))
	}
}
