package server

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/trace"
)

// invalLog collects a client's invalidation callbacks for assertions.
type invalLog struct {
	mu     sync.Mutex
	pages  map[page.PageID]int
	leases int
}

func newInvalLog() *invalLog { return &invalLog{pages: map[page.PageID]int{}} }

func (l *invalLog) attach(c *Client) {
	c.OnInvalidate(func(_ uint64, pids []page.PageID) {
		l.mu.Lock()
		for _, pid := range pids {
			l.pages[pid]++
		}
		l.mu.Unlock()
	})
	c.OnLeaseExpired(func() {
		l.mu.Lock()
		l.leases++
		l.mu.Unlock()
	})
}

func (l *invalLog) count(pid page.PageID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pages[pid]
}

func (l *invalLog) leaseCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.leases
}

// waitFor polls until the predicate holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// coherentServer builds a coherence-enabled transactional server with a
// metrics registry.
func coherentServer(t *testing.T) (*TCPServer, *metrics.Registry) {
	t.Helper()
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	srv.EnableCoherence(CoherenceOptions{})
	reg := metrics.New()
	srv.SetMetrics(reg)
	t.Cleanup(func() { srv.Close() })
	return srv, reg
}

// TestCoherenceDirectWritePush: two subscribed readers; a third client's
// WritePage outside a transaction commits as a transaction of its own and
// calls both back — and not itself.
func TestCoherenceDirectWritePush(t *testing.T) {
	srv, reg := coherentServer(t)

	_, addr, err := NewLocal(srv.mgr).Allocate(0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	pid := addr.Page

	var clients [3]*Client
	var logs [3]*invalLog
	for i := range clients {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if !c.HasCoherence() {
			t.Fatalf("client %d did not negotiate featureCoherence", i)
		}
		logs[i] = newInvalLog()
		logs[i].attach(c)
		clients[i] = c
	}
	// All three cache the page.
	for i, c := range clients {
		if _, err := c.ReadPage(pid); err != nil {
			t.Fatalf("client %d read: %v", i, err)
		}
	}
	if n := srv.CoherenceInterest(); n != 3 {
		t.Fatalf("interest = %d, want 3", n)
	}

	img, _ := clients[2].ReadPage(pid)
	if err := clients[2].WritePage(pid, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "invalidations at both readers", func() bool {
		return logs[0].count(pid) >= 1 && logs[1].count(pid) >= 1
	})
	if logs[2].count(pid) != 0 {
		t.Errorf("writer invalidated itself %d times", logs[2].count(pid))
	}
	if got := reg.Count(metrics.CtrCoherenceInvalSent); got < 2 {
		t.Errorf("invalidations_sent = %d, want >= 2", got)
	}
	// The write response was held until both acks arrived (or would have
	// timed out after 2s — waitFor above would then have failed), so the
	// acks must be in by now modulo the counter's publication.
	waitFor(t, time.Second, "acks counted", func() bool {
		return reg.Count(metrics.CtrCoherenceAcked) >= 2
	})
}

// TestCoherenceTxCommitPush: the committed transaction's write set — and
// nothing else — is pushed to the subscribed reader at commit.
func TestCoherenceTxCommitPush(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	srv.EnableCoherence(CoherenceOptions{})
	defer srv.Close()

	_, addr, err := NewLocal(mgr).Allocate(0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	pid := addr.Page

	reader, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	log := newInvalLog()
	log.attach(reader)
	if _, err := reader.ReadPage(pid); err != nil {
		t.Fatal(err)
	}

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, err := writer.BeginTx(); err != nil {
		t.Fatal(err)
	}
	img, err := writer.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.WritePage(pid, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	if got := log.count(pid); got != 0 {
		t.Fatalf("reader invalidated %d times before commit", got)
	}
	if err := writer.CommitTx(); err != nil {
		t.Fatal(err)
	}
	// The commit response waited for the reader's ack, so the callback
	// has already fired by the time CommitTx returns.
	if got := log.count(pid); got != 1 {
		t.Errorf("invalidations after commit = %d, want 1", got)
	}

	// An aborted transaction pushes nothing.
	if _, err := writer.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadPage(pid); err != nil {
		t.Fatal(err)
	}
	if err := writer.WritePage(pid, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	if err := writer.AbortTx(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := log.count(pid); got != 1 {
		t.Errorf("invalidations after abort = %d, want still 1", got)
	}
}

// TestCoherenceInterop: a client that dialed before EnableCoherence has
// no coherence endpoint and keeps working, and its writes (writer ID 0)
// still call back every coherent subscriber.
func TestCoherenceInterop(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	defer srv.Close()
	early, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	srv.EnableCoherence(CoherenceOptions{})
	if early.HasCoherence() {
		t.Error("a client dialed before EnableCoherence claims coherence")
	}
	exercise(t, early)

	reader, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	log := newInvalLog()
	log.attach(reader)
	_, addr, err := early.Allocate(0, []byte("from the early client"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadPage(addr.Page); err != nil {
		t.Fatal(err)
	}
	img, _ := early.ReadPage(addr.Page)
	if err := early.WritePage(addr.Page, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "push triggered by a writer without a coherence endpoint", func() bool {
		return log.count(addr.Page) >= 1
	})
}

// TestCoherenceFeatureGated: coherence is negotiated from what the server
// can observe — a client gets it exactly when EnableCoherence ran before
// its dial.
func TestCoherenceFeatureGated(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	defer srv.Close()

	plain, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if plain.HasCoherence() {
		t.Error("client negotiated coherence against a server without it")
	}
	exercise(t, plain)
	plain.Close()

	srv.EnableCoherence(CoherenceOptions{})
	coherent, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer coherent.Close()
	if !coherent.HasCoherence() {
		t.Error("client did not negotiate coherence against a server that enabled it")
	}
	exercise(t, coherent)
}

// TestCoherenceAckTimeout: when the reader's acks are suppressed, the
// writer's push round gives up after the configured ack timeout instead
// of stalling the write forever.
func TestCoherenceAckTimeout(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	srv.EnableCoherence(CoherenceOptions{AckTimeout: 50 * time.Millisecond})
	reg := metrics.New()
	srv.SetMetrics(reg)
	defer srv.Close()

	_, addr, err := NewLocal(mgr).Allocate(0, []byte("seed"))
	if err != nil {
		t.Fatal(err)
	}
	reader, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.ReadPage(addr.Page); err != nil {
		t.Fatal(err)
	}
	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	defer faultpoint.Reset()
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.CoherenceAck})

	img, _ := writer.ReadPage(addr.Page)
	start := time.Now()
	if err := writer.WritePage(addr.Page, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Errorf("write returned in %v, before the ack timeout", d)
	}
	if got := reg.Count(metrics.CtrCoherenceAckTimeout); got != 1 {
		t.Errorf("ack_timeouts = %d, want 1", got)
	}
}

// TestCoherenceLeaseExpiry: a client whose connection goes silent past
// its lease — here because the server dies — fires OnLeaseExpired.
func TestCoherenceLeaseExpiry(t *testing.T) {
	srv, _ := coherentServer(t)
	c, err := DialWith(srv.Addr().String(), DialOptions{LeaseTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := newInvalLog()
	log.attach(c)

	// Silence alone trips the watchdog.
	waitFor(t, 2*time.Second, "lease expiry under silence", func() bool {
		return log.leaseCount() >= 1
	})

	// Traffic re-arms it; connection death fires it again.
	if _, err := c.NumPages(0); err != nil {
		t.Fatal(err)
	}
	before := log.leaseCount()
	srv.Close()
	waitFor(t, 2*time.Second, "lease expiry on connection death", func() bool {
		return log.leaseCount() > before
	})
	if _, err := c.NumPages(0); err == nil {
		t.Error("RPC on dead connection succeeded")
	} else if errors.Is(err, nil) {
		t.Error("unreachable")
	}
}

// TestCoherenceRevocation: a tiny interest table revokes the oldest
// registration with an immediate callback when capacity is exceeded.
func TestCoherenceRevocation(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := ServeTx(ln, NewTxServer(mgr, 0))
	srv.EnableCoherence(CoherenceOptions{MaxEntries: 2})
	reg := metrics.New()
	srv.SetMetrics(reg)
	defer srv.Close()

	local := NewLocal(mgr)
	var pids []page.PageID
	for len(pids) < 3 {
		_, addr, err := local.Allocate(0, make([]byte, page.Size/2))
		if err != nil {
			t.Fatal(err)
		}
		if len(pids) == 0 || pids[len(pids)-1] != addr.Page {
			pids = append(pids, addr.Page)
		}
	}

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := newInvalLog()
	log.attach(c)
	for _, pid := range pids {
		if _, err := c.ReadPage(pid); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "revocation callback", func() bool {
		return log.count(pids[0]) >= 1
	})
	if got := reg.Count(metrics.CtrCoherenceRevoked); got < 1 {
		t.Errorf("revoked = %d, want >= 1", got)
	}
	if n := srv.CoherenceInterest(); n > 2 {
		t.Errorf("interest = %d, above the cap of 2", n)
	}
}

// TestSharedInterestCommitsDoNotStall: two clients both read pages P and Q,
// which registers their interest in each; then, released together, A writes
// and commits P while B writes and commits Q. Each commit pushes to the
// other client and waits for its ack, which arrives on the other client's
// connection while that connection's own commit is waiting too. A server
// that ran a commit on the loop reading the committer's connection could
// not read the ack there, and both commits would wait out the ack timeout.
// The disjoint case, where each client reads only the page it writes, is
// the rate to compare with.
func TestSharedInterestCommitsDoNotStall(t *testing.T) {
	const rounds = 20
	const ackTimeout = time.Second
	for _, shared := range []bool{true, false} {
		name := map[bool]string{true: "shared", false: "disjoint"}[shared]
		t.Run(name, func(t *testing.T) {
			mgr := newMgr(t)
			local := NewLocal(mgr)
			var ids [2]oid.OID
			var pids [2]page.PageID
			for i := range ids {
				// A record of 3,000 bytes has a page to itself.
				id, addr, err := local.Allocate(0, make([]byte, 3000))
				if err != nil {
					t.Fatal(err)
				}
				ids[i], pids[i] = id, addr.Page
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := ServeTx(ln, NewTxServer(mgr, 5*time.Second))
			srv.EnableCoherence(CoherenceOptions{AckTimeout: ackTimeout})
			reg := metrics.New()
			srv.SetMetrics(reg)
			defer srv.Close()
			var clients [2]*Client
			for i := range clients {
				c, err := Dial(srv.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}

			start := time.Now()
			for round := 0; round < rounds; round++ {
				for i, c := range clients {
					for j, pid := range pids {
						if shared || i == j {
							if _, err := c.ReadPage(pid); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				var ready, wg sync.WaitGroup
				release := make(chan struct{})
				errs := make(chan error, len(clients))
				for i, c := range clients {
					ready.Add(1)
					wg.Add(1)
					go func(i int, c *Client) {
						defer wg.Done()
						ready.Done()
						<-release
						if _, err := c.BeginTx(); err != nil {
							errs <- err
							return
						}
						rec := make([]byte, 3000)
						rec[0] = byte(round)
						if _, err := c.UpdateObject(ids[i], rec); err != nil {
							errs <- err
							return
						}
						if err := c.CommitTx(); err != nil {
							errs <- err
						}
					}(i, c)
				}
				ready.Wait()
				close(release)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			elapsed := time.Since(start)
			t.Logf("%s interest: %d commits in %v, %.0f commits/s", name, 2*rounds, elapsed, float64(2*rounds)/elapsed.Seconds())
			if n := reg.Count(metrics.CtrCoherenceAckTimeout); n != 0 {
				t.Errorf("%d commits waited out the ack timeout", n)
			}
			if elapsed > ackTimeout/2 {
				t.Errorf("%d rounds took %v, want well under one ack timeout (%v)", rounds, elapsed, ackTimeout)
			}
		})
	}
}

// TestPushToStalledPeerClosesIt: a subscriber that stops reading while its
// connection owes it answers — its executor is blocked writing one, and
// holds the connection's write lock — cannot hold a committer past the
// ack timeout. The push gives up on the lock at the round's deadline and
// closes the stalled connection; the commit returns.
func TestPushToStalledPeerClosesIt(t *testing.T) {
	const ackTimeout = 200 * time.Millisecond
	mgr := newMgr(t)
	_, addr, err := NewLocal(mgr).Allocate(0, make([]byte, 3000))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, 5*time.Second))
	srv.EnableCoherence(CoherenceOptions{AckTimeout: ackTimeout})
	reg := metrics.New()
	srv.SetMetrics(reg)
	defer srv.Close()

	// The stalled peer: a raw connection that reads the page once, which
	// registers its interest, then asks for it thousands of times and
	// reads nothing more, until the answers fill the socket buffers.
	peer, r := sendRaw(t, srv, frame(t, opHello, helloPayload(protocolV2, clientFeatures)))
	defer peer.Close()
	if status, _, err := readMsg(r); err != nil || status != statusOK {
		t.Fatalf("hello answered %d, %v", status, err)
	}
	read := binary.LittleEndian.AppendUint64(nil, uint64(addr.Page))
	one := encodeRequest(opReadPage, 1, read, trace.Context{})
	defer putBuf(one)
	if _, err := peer.Write(*one); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readMsg(r); err != nil || status != statusOK {
		t.Fatalf("read answered %d, %v", status, err)
	}
	var flood []byte
	for i := 0; i < 5000; i++ {
		flood = append(flood, *one...)
	}
	go peer.Write(flood) // blocks once the server stops reading
	waitFor(t, 5*time.Second, "the peer's executor to block", func() bool {
		before := reg.Snapshot().RPCFrames[1][metrics.RPCReadPage]
		time.Sleep(50 * time.Millisecond)
		return reg.Snapshot().RPCFrames[1][metrics.RPCReadPage] == before
	})

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	img, err := writer.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := writer.WritePage(addr.Page, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > ackTimeout+time.Second {
		t.Errorf("the commit took %v; the ack timeout is %v", d, ackTimeout)
	}
	// The peer finds its connection closed once it drains what was sent.
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, _, err := readMsg(r); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("the stalled peer's connection is still open")
			}
			break
		}
	}
}
