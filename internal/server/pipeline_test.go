package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

func TestPipelinedNegotiation(t *testing.T) {
	mgr := newMgr(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()

	piped, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer piped.Close()
	if !piped.Pipelined() {
		t.Error("default dial did not negotiate the pipelined protocol")
	}
	exercise(t, piped)

	locked, err := DialWith(srv.Addr().String(), DialOptions{Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	defer locked.Close()
	if locked.Pipelined() {
		t.Error("Lockstep dial negotiated the pipelined protocol")
	}
	exercise(t, locked)
}

// TestLockstepInteropBatchFallback checks that a lock-step client still
// offers the batch API by degrading to per-item RPCs.
func TestLockstepInteropBatchFallback(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	cl, err := DialWith(srv.Addr().String(), DialOptions{Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var ids []oid.OID
	var want []storage.PAddr
	for i := 0; i < 5; i++ {
		id, addr, err := cl.Allocate(0, []byte(fmt.Sprintf("obj %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want = append(want, addr)
	}
	ids = append(ids, oid.MustNew(9, 99999)) // unknown: ok[i] must clear
	addrs, ok, err := cl.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !ok[i] || addrs[i] != want[i] {
			t.Errorf("batch[%d] = %v, %v; want %v, true", i, addrs[i], ok[i], want[i])
		}
	}
	if ok[len(ids)-1] {
		t.Error("unknown OID resolved in batch fallback")
	}

	imgs, err := cl.ReadPages(page.NewPageID(0, 0), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 1 {
		t.Errorf("lock-step ReadPages shipped %d pages, want the 1-page fallback", len(imgs))
	}
}

// v1Stub speaks the original lock-step protocol only: every opcode it does
// not know — including opHello — earns a status-error reply, exactly like
// a pre-pipelining server. It serves opLookup from a fixed table.
func v1Stub(t *testing.T, addrs map[oid.OID]storage.PAddr) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for {
					op, payload, err := readMsg(r)
					if err != nil {
						return
					}
					if op != opLookup || len(payload) != 8 {
						if writeMsg(w, statusErr, []byte("unknown opcode")) != nil {
							return
						}
						continue
					}
					addr, ok := addrs[getOID(payload)]
					if !ok {
						if writeMsg(w, statusErr, []byte("no such oid")) != nil {
							return
						}
						continue
					}
					out := make([]byte, 10)
					putPAddr(out, addr)
					if writeMsg(w, statusOK, out) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestOldServerFallback dials a v1-only server with a v2 client: the
// rejected hello must downgrade the connection to lock-step, not kill it.
func TestOldServerFallback(t *testing.T) {
	id := oid.MustNew(0, 7)
	want := storage.PAddr{Page: page.NewPageID(0, 3), Slot: 2}
	ln := v1Stub(t, map[oid.OID]storage.PAddr{id: want})
	defer ln.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Pipelined() {
		t.Fatal("client claims pipelined protocol against a v1 server")
	}
	got, err := cl.Lookup(id)
	if err != nil || got != want {
		t.Fatalf("lookup via fallback = %v, %v; want %v", got, err, want)
	}
	if _, err := cl.Lookup(oid.MustNew(0, 8)); err == nil {
		t.Error("unknown OID lookup succeeded")
	}
	// Batch APIs degrade but work.
	addrs, ok, err := cl.LookupBatch([]oid.OID{id})
	if err != nil || !ok[0] || addrs[0] != want {
		t.Fatalf("batch via fallback = %v, %v, %v", addrs, ok, err)
	}
}

// TestPipelinedStress multiplexes many goroutines over ONE pipelined
// connection — mixed Lookup/ReadPage/WritePage plus a concurrent
// transactional connection — and verifies every response matched its
// request (content round-trips intact) and the server's per-RPC metrics
// account for exactly the issued work. Run with -race in CI.
func TestPipelinedStress(t *testing.T) {
	const workers = 8
	const iters = 60

	mgr := storage.NewManager(1)
	// One private segment per worker: WritePage integrity stays provable
	// under concurrency because nobody else touches the worker's pages.
	for seg := uint16(0); seg < workers+1; seg++ {
		if err := mgr.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	tx := NewTxServer(mgr, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, tx)
	defer srv.Close()
	reg := metrics.New()
	srv.SetMetrics(reg)

	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !cl.Pipelined() {
		t.Fatal("not pipelined")
	}

	var lookups, reads, writes, allocs atomic64
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seg := uint16(g)
			type obj struct {
				id   oid.OID
				addr storage.PAddr
				rec  []byte
			}
			var mine []obj
			for i := 0; i < iters; i++ {
				rec := []byte(fmt.Sprintf("worker %d item %d", g, i))
				id, addr, err := cl.Allocate(seg, rec)
				if err != nil {
					errCh <- err
					return
				}
				allocs.add(1)
				mine = append(mine, obj{id, addr, rec})

				pick := mine[i/2]
				got, err := cl.Lookup(pick.id)
				if err != nil || got != pick.addr {
					errCh <- fmt.Errorf("worker %d: lookup %v = %v, %v; want %v", g, pick.id, got, err, pick.addr)
					return
				}
				lookups.add(1)

				img, err := cl.ReadPage(pick.addr.Page)
				if err != nil {
					errCh <- err
					return
				}
				reads.add(1)
				p, err := pageOf(img)
				if err != nil {
					errCh <- err
					return
				}
				data, err := p.Read(int(pick.addr.Slot))
				if err != nil || !bytes.Equal(data, pick.rec) {
					errCh <- fmt.Errorf("worker %d: page %v slot %d = %q, %v; want %q — response/request mismatch",
						g, pick.addr.Page, pick.addr.Slot, data, err, pick.rec)
					return
				}

				if i%4 == 3 {
					// Rewrite one of our own pages through the raw page API.
					if err := cl.WritePage(pick.addr.Page, p.Image()); err != nil {
						errCh <- err
						return
					}
					writes.add(1)
				}
			}
		}(g)
	}

	// One transactional connection working its own segment concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		txc, err := Dial(srv.Addr().String())
		if err != nil {
			errCh <- err
			return
		}
		defer txc.Close()
		for i := 0; i < iters/4; i++ {
			if _, err := txc.BeginTx(); err != nil {
				errCh <- err
				return
			}
			id, _, err := txc.Allocate(workers, []byte(fmt.Sprintf("tx %d", i)))
			if err != nil {
				errCh <- err
				return
			}
			if _, err := txc.Lookup(id); err != nil {
				errCh <- err
				return
			}
			if err := txc.CommitTx(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	wantLookups := lookups.v() + int64(iters/4) // + tx connection's
	if got := snap.RPC[metrics.RPCLookup].Count; got != wantLookups {
		t.Errorf("server counted %d lookups, clients issued %d", got, wantLookups)
	}
	if got := snap.RPC[metrics.RPCReadPage].Count; got != reads.v() {
		t.Errorf("server counted %d page reads, clients issued %d", got, reads.v())
	}
	if got := snap.RPC[metrics.RPCWritePage].Count; got != writes.v() {
		t.Errorf("server counted %d page writes, clients issued %d", got, writes.v())
	}
	wantAllocs := allocs.v() + int64(iters/4)
	if got := snap.RPC[metrics.RPCAllocate].Count; got != wantAllocs {
		t.Errorf("server counted %d allocates, clients issued %d", got, wantAllocs)
	}
	if got := snap.RPC[metrics.RPCTxCommit].Count; got != int64(iters/4) {
		t.Errorf("server counted %d commits, want %d", got, iters/4)
	}
	if snap.Count(metrics.CtrRPCError) != 0 {
		t.Errorf("server counted %d rpc errors", snap.Count(metrics.CtrRPCError))
	}
	if peak := reg.GaugePeak(metrics.GaugeInFlightRPC); peak < 2 {
		t.Errorf("in-flight RPC peak = %d; want concurrent execution (≥ 2)", peak)
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) v() int64    { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestPipelinedBatchOpcodes exercises LookupBatch and ReadPages over the
// wire, including truncation at the segment end and unknown OIDs.
func TestPipelinedBatchOpcodes(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var ids []oid.OID
	var want []storage.PAddr
	for i := 0; i < 300; i++ { // spans several pages
		id, addr, err := cl.Allocate(0, bytes.Repeat([]byte{byte(i)}, 64))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		want = append(want, addr)
	}
	ids = append(ids, oid.MustNew(3, 777))
	addrs, ok, err := cl.LookupBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !ok[i] || addrs[i] != want[i] {
			t.Fatalf("batch[%d] = %v, %v; want %v", i, addrs[i], ok[i], want[i])
		}
	}
	if ok[len(ids)-1] {
		t.Error("unknown OID resolved")
	}

	n, err := cl.NumPages(0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("want multiple pages, have %d", n)
	}
	imgs, err := cl.ReadPages(page.NewPageID(0, 0), n+10) // over-ask: truncates
	if err != nil {
		t.Fatal(err)
	}
	limit := n
	if limit > maxReadRun {
		limit = maxReadRun
	}
	if len(imgs) != limit {
		t.Errorf("run of %d pages, want %d", len(imgs), limit)
	}
	for i, img := range imgs {
		direct, err := cl.ReadPage(page.NewPageID(0, uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, direct) {
			t.Errorf("run page %d differs from direct read", i)
		}
	}
}

// TestClientTimeout checks that a hung server surfaces as a distinct,
// matchable timeout error on both framings.
func TestClientTimeout(t *testing.T) {
	// A listener that accepts and then never answers anything.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow bytes forever, never reply.
			go func(conn net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}(conn)
		}
	}()

	for _, lockstep := range []bool{true, false} {
		cl, err := DialWith(ln.Addr().String(), DialOptions{
			Timeout:  50 * time.Millisecond,
			Lockstep: lockstep,
		})
		if lockstep {
			if err != nil {
				t.Fatal(err)
			}
		} else {
			// The hello exchange itself times out against a mute server;
			// that must already surface as a timeout at dial.
			if err == nil {
				cl.Close()
				t.Fatal("dial against mute server succeeded")
			}
			if !errors.Is(err, ErrRPCTimeout) {
				t.Fatalf("dial error %v does not match ErrRPCTimeout", err)
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("dial error %v is not a net.Error timeout", err)
			}
			continue
		}
		_, err = cl.Lookup(oid.MustNew(0, 1))
		if !errors.Is(err, ErrRPCTimeout) {
			t.Fatalf("lockstep=%v: error %v does not match ErrRPCTimeout", lockstep, err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("lockstep=%v: error %v is not a net.Error timeout", lockstep, err)
		}
		cl.Close()
	}
}

// TestPipelinedTimeoutLeavesConnectionUsable: a timed-out pipelined RPC
// abandons its ID; later traffic on the same connection still works.
func TestPipelinedTimeoutLeavesConnectionUsable(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	cl, err := DialWith(srv.Addr().String(), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, addr, err := cl.Allocate(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Lookup(id)
	if err != nil || got != addr {
		t.Fatalf("lookup = %v, %v", got, err)
	}
}

// TestFrameCodecZeroAlloc asserts the pooled frame codec allocates nothing
// per message at steady state (the serve-loop satellite).
func TestFrameCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per call; run without -race for the alloc check")
	}
	payload := make([]byte, 256)
	var buf bytes.Buffer
	r := bufio.NewReader(nil)
	allocs := testing.AllocsPerRun(2000, func() {
		frame := encodeFrame(opReadPage, 42, payload)
		buf.Reset()
		buf.Write(*frame)
		putBuf(frame)
		r.Reset(&buf)
		_, body, err := readMsgPooled(r)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(body)
	})
	if allocs > 0.5 {
		t.Errorf("frame codec allocates %.2f objects/op, want 0", allocs)
	}
}

// benchServer spins up a populated TCP server shared by the throughput
// benchmarks: 64 objects spread over multiple pages.
func benchServer(b *testing.B) (*TCPServer, []oid.OID, []storage.PAddr) {
	b.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		b.Fatal(err)
	}
	var ids []oid.OID
	var addrs []storage.PAddr
	for i := 0; i < 64; i++ {
		id, addr, err := mgr.Allocate(0, bytes.Repeat([]byte{byte(i)}, 256))
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
		addrs = append(addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return Serve(ln, mgr), ids, addrs
}

// latencyProxy relays bytes between client and server, charging a fixed
// delay per transmission in each direction. Loopback on a small CI box has
// no propagation delay — every microsecond of an RPC is CPU — so lock-step
// and pipelined framing are indistinguishable over it. The proxy restores
// the per-message link latency of a real page-server deployment, which is
// precisely the wait that pipelining overlaps and coalescing amortizes.
func latencyProxy(b *testing.B, target string, d time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			pump := func(dst, src net.Conn) {
				defer dst.Close()
				defer src.Close()
				buf := make([]byte, 256<<10)
				for {
					n, rerr := src.Read(buf)
					if n > 0 {
						time.Sleep(d)
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if rerr != nil {
						return
					}
				}
			}
			go pump(up, down)
			go pump(down, up)
		}
	}()
	b.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// BenchmarkClientThroughput contrasts the lock-step and pipelined clients
// under concurrent load: ≥ 8 goroutines share ONE connection issuing the
// mixed Lookup/ReadPage load of the ISSUE's acceptance criterion, over raw
// loopback and over a simulated LAN link (200µs per transmission).
func BenchmarkClientThroughput(b *testing.B) {
	for _, link := range []struct {
		name  string
		delay time.Duration
	}{{"loopback", 0}, {"lan200us", 200 * time.Microsecond}} {
		b.Run(link.name, func(b *testing.B) {
			for _, mode := range []struct {
				name     string
				lockstep bool
			}{{"lockstep", true}, {"pipelined", false}} {
				b.Run(mode.name, func(b *testing.B) {
					srv, ids, addrs := benchServer(b)
					defer srv.Close()
					addr := srv.Addr().String()
					if link.delay > 0 {
						addr = latencyProxy(b, addr, link.delay)
					}
					cl, err := DialWith(addr, DialOptions{Lockstep: mode.lockstep})
					if err != nil {
						b.Fatal(err)
					}
					defer cl.Close()
					b.SetParallelism(8) // ≥ 8 goroutines over the one connection
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						i := 0
						for pb.Next() {
							if i%2 == 0 {
								if _, err := cl.Lookup(ids[i%len(ids)]); err != nil {
									b.Error(err)
									return
								}
							} else {
								if _, err := cl.ReadPage(addrs[i%len(addrs)].Page); err != nil {
									b.Error(err)
									return
								}
							}
							i++
						}
					})
				})
			}
		})
	}
}

// BenchmarkLookupBatchVsLoop measures the round-trip amortization of the
// batch opcode against per-OID lookups on one connection.
func BenchmarkLookupBatchVsLoop(b *testing.B) {
	srv, ids, _ := benchServer(b)
	defer srv.Close()
	cl, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, err := cl.Lookup(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cl.LookupBatch(ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}
