// Fault matrix for the callback/lease coherence protocol, built on the
// deterministic faultpoint sites: dropped invalidation frames, delayed
// frames, suppressed acknowledgements, a subscribed client killed
// mid-lease, and a server crash between commit and callback. The property
// under every fault is the lease bound — no client serves a stale page
// past its lease horizon: staleness is allowed only until the push
// arrives, the ack round times out, or the lease fires, whichever the
// fault permits.
package coherence_test

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/server"
	"gom/internal/storage"
)

// leaseSlack pads timing assertions: schedulers stall, -race slows
// everything down.
const leaseSlack = 3 * time.Second

func waitUntil(t *testing.T, d time.Duration, what string, pred func() bool) {
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

// coherentTCP builds a coherence-enabled transactional server over a fresh
// storage manager.
func coherentTCP(t *testing.T, ackTimeout time.Duration) (*server.TCPServer, *storage.Manager) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(mgr, 0))
	srv.EnableCoherence(server.CoherenceOptions{AckTimeout: ackTimeout})
	t.Cleanup(func() { srv.Close() })
	return srv, mgr
}

// dialCaching dials a caching reader with the given client-side lease.
func dialCaching(t *testing.T, addr string, lease time.Duration) *cachingClient {
	t.Helper()
	c, err := server.DialWith(addr, server.DialOptions{LeaseTimeout: lease})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if !c.HasCoherence() {
		t.Fatal("coherence not negotiated")
	}
	cc := newCachingFromClient(c)
	return cc
}

// TestFaultMatrixSeeded is the seeded property sweep: random faults on
// the push and ack paths, one write per round, and the invariant that
// every reader converges to the written value within the lease horizon —
// with a monotonicity check that no reader ever travels back in time.
func TestFaultMatrixSeeded(t *testing.T) {
	const (
		lease      = 40 * time.Millisecond
		ackTimeout = 100 * time.Millisecond
		rounds     = 12
	)
	srv, mgr := coherentTCP(t, ackTimeout)
	reg := setupRegister(t, mgr)
	addr := srv.Addr().String()

	writer, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	readers := []*cachingClient{
		dialCaching(t, addr, lease),
		dialCaching(t, addr, lease),
	}

	rng := rand.New(rand.NewSource(0xC0DE))
	lastSeen := make([]uint64, len(readers))
	writeOrder := map[uint64]int{seedValue: 0}
	for round := 1; round <= rounds; round++ {
		// Prime both caches so every round's fault has a stale copy to
		// threaten.
		for i, cc := range readers {
			img, err := cc.read(reg.pid)
			if err != nil {
				t.Fatalf("round %d reader %d prime: %v", round, i, err)
			}
			v := reg.valueOf(img)
			if writeOrder[v] < writeOrder[lastSeen[i]] {
				t.Fatalf("round %d reader %d went backwards: %#x after %#x", round, i, v, lastSeen[i])
			}
			lastSeen[i] = v
		}

		var armedDesc string
		switch rng.Intn(4) {
		case 0:
			armedDesc = "none"
		case 1:
			armedDesc = "drop-push"
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.CoherencePush, Times: rng.Intn(2) + 1})
		case 2:
			armedDesc = "delay-push"
			faultpoint.Arm(faultpoint.Fault{
				Site: faultpoint.CoherencePush, Skip: true,
				Delay: time.Duration(rng.Intn(20)+1) * time.Millisecond,
			})
		case 3:
			armedDesc = "drop-ack"
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.CoherenceAck, Times: rng.Intn(2) + 1})
		}

		v := uint64(0xF000_0000) + uint64(round)
		writeOrder[v] = round
		if err := writer.WritePage(reg.pid, reg.imageFor(v)); err != nil {
			t.Fatalf("round %d write (%s): %v", round, armedDesc, err)
		}
		// The lease bound: every reader sees v within the lease horizon.
		// A dropped push leaves the reader silent, so its lease fires and
		// the next read refetches; a delayed push just arrives late; a
		// dropped ack still applied the invalidation client-side.
		for i, cc := range readers {
			i, cc := i, cc
			waitUntil(t, lease+ackTimeout+leaseSlack, armedDesc, func() bool {
				img, err := cc.read(reg.pid)
				if err != nil {
					t.Fatalf("round %d reader %d (%s): %v", round, i, armedDesc, err)
				}
				got := reg.valueOf(img)
				if writeOrder[got] < writeOrder[lastSeen[i]] {
					t.Fatalf("round %d reader %d went backwards: %#x after %#x", round, i, got, lastSeen[i])
				}
				lastSeen[i] = got
				return got == v
			})
		}
		faultpoint.Reset()
	}
}

// TestFaultMatrixKillClientMidLease kills a subscribed reader outright;
// the writer's next push must neither hang past the ack timeout nor leak
// the dead client's registrations.
func TestFaultMatrixKillClientMidLease(t *testing.T) {
	const ackTimeout = 300 * time.Millisecond
	srv, mgr := coherentTCP(t, ackTimeout)
	reg := setupRegister(t, mgr)
	addr := srv.Addr().String()

	victim := newCachingClient(t, addr)
	if _, err := victim.read(reg.pid); err != nil {
		t.Fatal(err)
	}
	survivor := newCachingClient(t, addr)
	if _, err := survivor.read(reg.pid); err != nil {
		t.Fatal(err)
	}
	if n := srv.CoherenceInterest(); n != 2 {
		t.Fatalf("interest = %d, want 2", n)
	}

	victim.c.Close() // mid-lease: registrations still in the table

	writer, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	start := time.Now()
	if err := writer.WritePage(reg.pid, reg.imageFor(7)); err != nil {
		t.Fatal(err)
	}
	// Whether the server noticed the dead peer before or during the push,
	// the detach path releases the round's waiter — the write is bounded
	// by the ack timeout, not hung forever.
	if d := time.Since(start); d > ackTimeout+leaseSlack {
		t.Errorf("write took %v with a dead subscriber", d)
	}
	// The survivor's callback still arrived.
	waitUntil(t, leaseSlack, "survivor refetch", func() bool {
		img, err := survivor.read(reg.pid)
		return err == nil && reg.valueOf(img) == 7
	})
	// And the victim's registrations are gone.
	waitUntil(t, leaseSlack, "dead client's interest reclaimed", func() bool {
		return srv.CoherenceInterest() <= 2 // survivor + writer-side reads at most
	})
}

// TestFaultMatrixServerCrashBetweenCommitAndCallback: the write commits,
// the callback is lost (injected), and the server then dies. The
// subscribed reader must not serve its stale copy past the lease event
// its dead connection fires, and a fresh client against the restarted
// store reads the committed value.
func TestFaultMatrixServerCrashBetweenCommitAndCallback(t *testing.T) {
	const lease = 40 * time.Millisecond
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(mgr, 0))
	srv.EnableCoherence(server.CoherenceOptions{AckTimeout: 100 * time.Millisecond})
	reg := setupRegister(t, mgr)

	reader := dialCaching(t, srv.Addr().String(), lease)
	if _, err := reader.read(reg.pid); err != nil {
		t.Fatal(err)
	}
	writer, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	// The commit lands; its callback is dropped; the server "crashes".
	defer faultpoint.Reset()
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.CoherencePush})
	if err := writer.WritePage(reg.pid, reg.imageFor(99)); err != nil {
		t.Fatal(err)
	}
	writer.Close()
	srv.Close()
	faultpoint.Reset()

	// The reader's connection died with the server: its lease machinery
	// fires and queues the drop-everything invalidation. Past the lease
	// horizon every read must refuse the stale copy — here by erroring,
	// since the refetch has no server to go to.
	deadline := time.Now().Add(lease + leaseSlack)
	for {
		img, err := reader.read(reg.pid)
		if err != nil {
			break // stale copy dropped, refetch failed: correct
		}
		if v := reg.valueOf(img); v == 99 {
			t.Fatalf("read returned the new value %#x from a dead server", v)
		}
		if time.Now().After(deadline) {
			t.Fatal("reader still serving the stale page past its lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Restart on the same storage; the committed write survived and a
	// fresh subscriber reads it.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.ServeTx(ln2, server.NewTxServer(mgr, 0))
	srv2.EnableCoherence(server.CoherenceOptions{})
	defer srv2.Close()
	fresh := newCachingClient(t, srv2.Addr().String())
	img, err := fresh.read(reg.pid)
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.valueOf(img); v != 99 {
		t.Fatalf("restarted store serves %#x, want the committed 99", v)
	}
}
