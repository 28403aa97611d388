package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
	"gom/internal/trace"
)

// helloPayload is the eight bytes of a hello, either way: version, features.
func helloPayload(ver, features uint32) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint32(p, ver)
	binary.LittleEndian.PutUint32(p[4:], features)
	return p
}

// sendRaw dials the server without a Client, sends b and returns the
// connection with a reader over whatever comes back within five seconds.
func sendRaw(t *testing.T, srv *TCPServer, b []byte) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

// TestPipelinedNegotiation holds the server's answer to a well-formed
// hello: version 2, the baseline, featureTx exactly from a transactional
// server, coherence exactly when that server enabled it and the client
// offered it, and no bit the server does not know. A plain server refuses
// to enable coherence.
func TestPipelinedNegotiation(t *testing.T) {
	serve := func(tx bool) *TCPServer {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if tx {
			return ServeTx(ln, NewTxServer(newMgr(t), 0))
		}
		return Serve(ln, newMgr(t))
	}
	plain, srv := serve(false), serve(true)
	defer plain.Close()
	defer srv.Close()

	agreed := func(srv *TCPServer, ver, offered uint32) uint32 {
		t.Helper()
		conn, r := sendRaw(t, srv, frame(t, opHello, helloPayload(ver, offered)))
		defer conn.Close()
		status, resp, err := readMsg(r)
		if err != nil || status != statusOK || len(resp) != 8 || binary.LittleEndian.Uint32(resp) != protocolV2 {
			t.Fatalf("hello(%d, %#x) answered status %d, % x, %v", ver, offered, status, resp, err)
		}
		return binary.LittleEndian.Uint32(resp[4:])
	}
	if err := plain.EnableCoherence(CoherenceOptions{}); !errors.Is(err, errNotTransactional) {
		t.Errorf("EnableCoherence on a plain server = %v, want %v", err, errNotTransactional)
	}
	if got := agreed(plain, protocolV2, clientFeatures); got != baselineFeatures {
		t.Errorf("the plain server agreed to %#x, want the baseline %#x", got, baselineFeatures)
	}
	if got := agreed(srv, protocolV2, clientFeatures); got != baselineFeatures|featureTx {
		t.Errorf("before EnableCoherence the server agreed to %#x, want baseline and tx", got)
	}
	if err := srv.EnableCoherence(CoherenceOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := agreed(srv, protocolV2, clientFeatures); got != baselineFeatures|featureTx|featureCoherence {
		t.Errorf("after EnableCoherence the server agreed to %#x, want baseline, tx and coherence", got)
	}
	if got := agreed(srv, protocolV2, baselineFeatures); got != baselineFeatures {
		t.Errorf("a client that offers neither tx nor coherence got %#x, want the baseline", got)
	}
	if got := agreed(srv, protocolV2+1, 0xffff0000|clientFeatures); got != baselineFeatures|featureTx|featureCoherence {
		t.Errorf("a newer client offering unknown bits got %#x, want only what this server knows", got)
	}
}

// refusalCase is a byte stream TestHelloRefusals sends (and FuzzTCPFrame is
// seeded with); established marks the one whose first frame is a valid
// hello.
type refusalCase struct {
	name        string
	sent        []byte
	established bool
}

func refusalCases(tb testing.TB) []refusalCase {
	hello := helloPayload(protocolV2, clientFeatures)
	second := encodeRequest(opHello, 9, hello, trace.Context{})
	defer putBuf(second)
	return []refusalCase{
		{"first frame not a hello", frame(tb, opLookup, make([]byte, 8)), false},
		{"hello of version 1", frame(tb, opHello, helloPayload(1, clientFeatures)), false},
		{"hello of the wrong length", frame(tb, opHello, make([]byte, 12)), false},
		{"hello without a baseline bit", frame(tb, opHello, helloPayload(protocolV2, clientFeatures&^featureTrace)), false},
		{"second hello", append(frame(tb, opHello, hello), *second...), true},
	}
}

// TestHelloRefusals: whatever opens a connection other than one
// well-formed hello — and a second hello on an open connection — gets
// exactly one statusErr frame and a closed connection, counts as one RPC
// error, leaks neither a goroutine nor a pooled buffer, and leaves the
// server serving the next dial.
func TestHelloRefusals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, newMgr(t))
	reg := metrics.New()
	srv.SetMetrics(reg)
	defer SetPoolDebug(SetPoolDebug(true))

	for _, tc := range refusalCases(t) {
		before := reg.Count(metrics.CtrRPCError)
		conn, r := sendRaw(t, srv, tc.sent)
		if tc.established {
			if status, _, err := readMsg(r); err != nil || status != statusOK {
				t.Fatalf("%s: the first hello was answered with status %d, %v", tc.name, status, err)
			}
		}
		status, msg, err := readMsg(r)
		if err != nil || status != statusErr {
			t.Fatalf("%s: answered with status %d, %v; want one statusErr frame", tc.name, status, err)
		}
		if tc.established {
			// An established connection answers in its own framing.
			if len(msg) < 8 || binary.LittleEndian.Uint64(msg) != 9 {
				t.Fatalf("%s: the refusal does not carry the request's ID: %x", tc.name, msg)
			}
			msg = msg[8:]
		}
		if !bytes.Contains(msg, []byte(errProtocol.Error())) {
			t.Errorf("%s: refusal says %q, want a protocol error", tc.name, msg)
		}
		if _, _, err := readMsg(r); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the refusal the connection yields %v, want EOF", tc.name, err)
		}
		conn.Close()
		if got := reg.Count(metrics.CtrRPCError) - before; got != 1 {
			t.Errorf("%s: server_rpc_error moved by %d, want 1", tc.name, got)
		}
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatalf("%s: the next dial failed: %v", tc.name, err)
		}
		if _, err := cl.NumPages(0); err != nil {
			t.Errorf("%s: the next connection does not serve: %v", tc.name, err)
		}
		cl.Close()
	}

	// Close waits for every connection goroutine; a leaked one hangs here.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if bufs, frames := PoolOutstanding(); bufs != 0 || frames != 0 {
		t.Fatalf("pool leak: %d message buffers and %d response frames outstanding after the refusals", bufs, frames)
	}
}

// TestOldServerRefused dials peers that cannot hold up the protocol: the
// dial fails with ErrIncompatiblePeer, promptly, instead of downgrading.
// Each peer answers every frame with one fixed message; a v1 server's, to
// an opHello it has never heard of, is statusErr "unknown opcode".
func TestOldServerRefused(t *testing.T) {
	for name, answer := range map[string][]byte{
		"v1 server rejects hello": frame(t, statusErr, []byte("unknown opcode")),
		"answers with version 1":  frame(t, statusOK, helloPayload(1, clientFeatures)),
		"lacks the pageDir bit":   frame(t, statusOK, helloPayload(protocolV2, clientFeatures&^featurePageDir)),
	} {
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
				go func() {
					defer conn.Close()
					for r := bufio.NewReader(conn); ; {
						if _, _, err := readMsg(r); err != nil {
							return
						}
						conn.Write(answer)
					}
				}()
			}
		}()
		start := time.Now()
		cl, err := DialWith(ln.Addr().String(), DialOptions{DialTimeout: 2 * time.Second})
		if err == nil {
			cl.Close()
			t.Errorf("%s: dial succeeded", name)
		} else if !errors.Is(err, ErrIncompatiblePeer) {
			t.Errorf("%s: dial error %v does not match ErrIncompatiblePeer", name, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refusal took %v, want well inside the dial timeout", name, d)
		}
		ln.Close()
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
// wire, including truncation at the segment end, unknown OIDs, and a page
// run costing the server one request.
func TestPipelinedBatchOpcodes(t *testing.T) {
	mgr := newMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	reg := metrics.New()
	srv.SetMetrics(reg)
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
	if rpc := reg.Snapshot().RPC; rpc[metrics.RPCReadPages].Count != 1 || rpc[metrics.RPCReadPage].Count != 0 {
		t.Errorf("a run of %d pages took %d ReadPages and %d ReadPage requests, want 1 and 0",
			len(imgs), rpc[metrics.RPCReadPages].Count, rpc[metrics.RPCReadPage].Count)
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
// matchable timeout error: the hello exchange itself times out against a
// mute server, and that must already surface as a timeout at dial.
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

	cl, err := DialWith(ln.Addr().String(), DialOptions{Timeout: 50 * time.Millisecond})
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
		frame := encodeRequest(opReadPage, 42, payload, trace.Context{})
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
// no propagation delay — every microsecond of an RPC is CPU. The proxy
// restores the per-message link latency of a real page-server deployment,
// which is precisely the wait that pipelining overlaps and coalescing
// amortizes.
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

// BenchmarkClientThroughput measures the client under concurrent load: ≥ 8
// goroutines share ONE connection issuing a mixed Lookup/ReadPage load,
// over raw loopback and over a simulated LAN link (200µs per
// transmission).
func BenchmarkClientThroughput(b *testing.B) {
	for _, link := range []struct {
		name  string
		delay time.Duration
	}{{"loopback", 0}, {"lan200us", 200 * time.Microsecond}} {
		b.Run(link.name, func(b *testing.B) {
			srv, ids, addrs := benchServer(b)
			defer srv.Close()
			addr := srv.Addr().String()
			if link.delay > 0 {
				addr = latencyProxy(b, addr, link.delay)
			}
			cl, err := Dial(addr)
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
