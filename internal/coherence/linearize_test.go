// Linearizability of the callback/lease coherence protocol, checked the
// Wing–Gong way: concurrent writers and caching readers run against a
// real TCP server, every operation is recorded as an invoke/response
// interval over a single register (one 8-byte value in one page), and the
// checker searches for a legal sequential witness. Reads served from a
// client cache past an acknowledged invalidation have no witness — they
// are the convictions this test exists to produce when delivery is broken
// (see TestCheckerConvictsWithoutCallbacks).
//
// External test package: the scenarios need gom/internal/server, which
// imports gom/internal/coherence.
package coherence_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
)

// regOp is one invoke/response interval over the shared register.
type regOp struct {
	invoke, ret uint64 // global logical timestamps
	write       bool
	value       uint64 // value written, or value returned by the read
}

// linearizable reports whether the history has a sequential witness over
// an atomic register with the given initial value (Wing & Gong's
// algorithm with (linearized-set, state) memoization). Histories are
// limited to 64 operations so the linearized set fits a bitmask.
func linearizable(ops []regOp, initial uint64) bool {
	n := len(ops)
	if n == 0 {
		return true
	}
	if n > 64 {
		panic("linearizable: history too large for the bitmask")
	}
	full := uint64(1)<<n - 1
	if n == 64 {
		full = ^uint64(0)
	}
	type state struct {
		mask uint64
		val  uint64
	}
	failed := make(map[state]struct{})
	var rec func(mask uint64, val uint64) bool
	rec = func(mask uint64, val uint64) bool {
		if mask == full {
			return true
		}
		key := state{mask, val}
		if _, ok := failed[key]; ok {
			return false
		}
		// An operation may be linearized next only if no other pending
		// operation completed before it was invoked.
		minRet := ^uint64(0)
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 && ops[i].ret < minRet {
				minRet = ops[i].ret
			}
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 || ops[i].invoke > minRet {
				continue
			}
			if ops[i].write {
				if rec(mask|1<<i, ops[i].value) {
					return true
				}
			} else if ops[i].value == val && rec(mask|1<<i, val) {
				return true
			}
		}
		failed[key] = struct{}{}
		return false
	}
	return rec(0, initial)
}

// TestCheckerKnownHistories validates the checker itself on hand-built
// histories before trusting it to judge the protocol.
func TestCheckerKnownHistories(t *testing.T) {
	w := func(inv, ret, v uint64) regOp { return regOp{invoke: inv, ret: ret, write: true, value: v} }
	r := func(inv, ret, v uint64) regOp { return regOp{invoke: inv, ret: ret, value: v} }

	cases := []struct {
		name string
		ops  []regOp
		ok   bool
	}{
		{"empty", nil, true},
		{"sequential", []regOp{w(1, 2, 7), r(3, 4, 7), w(5, 6, 8), r(9, 10, 8)}, true},
		{"read overlapping write may see old", []regOp{w(1, 4, 7), r(2, 3, 0)}, true},
		{"read overlapping write may see new", []regOp{w(1, 4, 7), r(2, 3, 7)}, true},
		{"stale read after completed write", []regOp{w(1, 2, 7), r(3, 4, 0)}, false},
		{"value out of thin air", []regOp{w(1, 2, 7), r(3, 4, 9)}, false},
		{"new-old inversion", []regOp{w(1, 2, 7), r(3, 4, 7), r(5, 6, 0)}, false},
		{"concurrent writes either order",
			[]regOp{w(1, 4, 1), w(2, 3, 2), r(5, 6, 1)}, true},
		{"read cannot precede its write", []regOp{r(1, 2, 7), w(3, 4, 7)}, false},
	}
	for _, tc := range cases {
		if got := linearizable(tc.ops, 0); got != tc.ok {
			t.Errorf("%s: linearizable = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// clock issues the global logical timestamps; one atomic counter gives a
// total order consistent with real time on one machine.
var clock atomic.Uint64

// cachingClient models the object manager's buffer-pool discipline over a
// raw TCP client: pages are cached on read and served from cache until an
// invalidation for them is applied, and invalidations are queued by the
// callback and applied at the next operation boundary — exactly the
// op-boundary application the OM uses (internal/core/coherence.go).
type cachingClient struct {
	c *server.Client

	mu      sync.Mutex
	cache   map[page.PageID][]byte
	pending []page.PageID
	all     bool
}

func newCachingClient(t *testing.T, addr string) *cachingClient {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if !c.HasCoherence() {
		t.Fatal("coherence not negotiated")
	}
	return newCachingFromClient(c)
}

// newCachingFromClient wraps an already-dialed coherent client (the fault
// matrix dials with a lease timeout).
func newCachingFromClient(c *server.Client) *cachingClient {
	cc := &cachingClient{c: c, cache: make(map[page.PageID][]byte)}
	c.OnInvalidate(func(_ uint64, pids []page.PageID) {
		cc.mu.Lock()
		cc.pending = append(cc.pending, pids...)
		cc.mu.Unlock()
	})
	c.OnLeaseExpired(func() {
		cc.mu.Lock()
		cc.all = true
		cc.mu.Unlock()
	})
	return cc
}

// read returns the page image, from cache when present. Queued
// invalidations are applied first: an operation that starts after an
// invalidation was acknowledged must not serve the old image.
func (cc *cachingClient) read(pid page.PageID) ([]byte, error) {
	cc.mu.Lock()
	if cc.all {
		cc.cache = make(map[page.PageID][]byte)
		cc.all = false
		cc.pending = nil
	}
	for _, p := range cc.pending {
		delete(cc.cache, p)
	}
	cc.pending = cc.pending[:0]
	if img, ok := cc.cache[pid]; ok {
		cc.mu.Unlock()
		return img, nil
	}
	cc.mu.Unlock()
	img, err := cc.c.ReadPage(pid)
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	cc.cache[pid] = img
	cc.mu.Unlock()
	return img, nil
}

// register is the shared one-value register: an 8-byte slot at a fixed
// offset inside one page.
type register struct {
	pid      page.PageID
	off      int
	template []byte // page image to patch values into
}

const seedValue = 0xC0FFEE_D00D_F00D

// setupRegister allocates the register's backing object and locates the
// value bytes inside the page image.
func setupRegister(t *testing.T, mgr *storage.Manager) *register {
	t.Helper()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], seedValue)
	local := server.NewLocal(mgr)
	_, addr, err := local.Allocate(0, seed[:])
	if err != nil {
		t.Fatal(err)
	}
	img, err := local.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(img, seed[:])
	if off < 0 {
		t.Fatal("seed value not found in page image")
	}
	return &register{pid: addr.Page, off: off, template: img}
}

func (r *register) valueOf(img []byte) uint64 {
	return binary.LittleEndian.Uint64(img[r.off:])
}

func (r *register) imageFor(v uint64) []byte {
	img := append([]byte(nil), r.template...)
	binary.LittleEndian.PutUint64(img[r.off:], v)
	return img
}

// runScenario drives writers×writes and readers×reads over the register
// and returns the merged history. Each writer's op is provided by doWrite
// (a WritePage outside a transaction, or a begin/write/commit transaction).
func runScenario(t *testing.T, addr string, reg *register,
	writers, writesEach, readers, readsEach int,
	doWrite func(t *testing.T, cl *server.Client, img []byte) error) []regOp {
	t.Helper()
	var (
		mu  sync.Mutex
		ops []regOp
		wg  sync.WaitGroup
	)
	record := func(op regOp) {
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	}
	for wi := 0; wi < writers; wi++ {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		wg.Add(1)
		go func(wi int, cl *server.Client) {
			defer wg.Done()
			for k := 0; k < writesEach; k++ {
				v := uint64(wi+1)<<32 | uint64(k+1)
				img := reg.imageFor(v)
				inv := clock.Add(1)
				if err := doWrite(t, cl, img); err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
				record(regOp{invoke: inv, ret: clock.Add(1), write: true, value: v})
			}
		}(wi, cl)
	}
	for ri := 0; ri < readers; ri++ {
		cc := newCachingClient(t, addr)
		wg.Add(1)
		go func(ri int, cc *cachingClient) {
			defer wg.Done()
			for k := 0; k < readsEach; k++ {
				inv := clock.Add(1)
				img, err := cc.read(reg.pid)
				if err != nil {
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				record(regOp{invoke: inv, ret: clock.Add(1), value: reg.valueOf(img)})
				if k%3 == 2 {
					time.Sleep(time.Millisecond) // let writes land between reads
				}
			}
		}(ri, cc)
	}
	wg.Wait()
	return ops
}

// TestLinearizableDirectWrites: 4 writers (WritePage outside a
// transaction, so each write commits as a transaction of its own) × 4
// caching readers over one register on real TCP; the recorded history must
// have a sequential witness.
func TestLinearizableDirectWrites(t *testing.T) {
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(mgr, 0))
	srv.EnableCoherence(server.CoherenceOptions{})
	defer srv.Close()
	reg := setupRegister(t, mgr)

	ops := runScenario(t, srv.Addr().String(), reg, 4, 5, 4, 11,
		func(t *testing.T, cl *server.Client, img []byte) error {
			return cl.WritePage(reg.pid, img)
		})
	if t.Failed() {
		return
	}
	if len(ops) != 4*5+4*11 {
		t.Fatalf("recorded %d ops, want %d", len(ops), 4*5+4*11)
	}
	if !linearizable(ops, seedValue) {
		t.Fatalf("history is not linearizable:\n%s", dumpHistory(ops))
	}
}

// TestLinearizableTxCommits: the same shape with transactional writers —
// each write is a begin/write/commit, pushed from the commit's X-lock
// set. Lock conflicts between writers surface as transient errors and are
// retried inside the op's interval.
func TestLinearizableTxCommits(t *testing.T) {
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(mgr, 2*time.Second))
	srv.EnableCoherence(server.CoherenceOptions{})
	defer srv.Close()
	reg := setupRegister(t, mgr)

	ops := runScenario(t, srv.Addr().String(), reg, 4, 3, 4, 8,
		func(t *testing.T, cl *server.Client, img []byte) error {
			for attempt := 0; ; attempt++ {
				if _, err := cl.BeginTx(); err != nil {
					return err
				}
				err := cl.WritePage(reg.pid, img)
				if err == nil {
					err = cl.CommitTx()
				} else {
					cl.AbortTx()
				}
				if err == nil {
					return nil
				}
				if attempt > 20 {
					return fmt.Errorf("write never committed: %w", err)
				}
				time.Sleep(time.Duration(attempt+1) * time.Millisecond)
			}
		})
	if t.Failed() {
		return
	}
	if !linearizable(ops, seedValue) {
		t.Fatalf("history is not linearizable:\n%s", dumpHistory(ops))
	}
}

// TestCheckerConvictsWithoutCallbacks suppresses invalidation delivery at
// the server (faultpoint coherence.push) and replays a deterministic
// read/write/read sequence: with the callback lost and no lease pressure,
// the reader's cache serves the old value after the write completed — a
// history with no witness. This is the issue's required conviction: the
// checker, not the implementation, is what notices.
func TestCheckerConvictsWithoutCallbacks(t *testing.T) {
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(mgr, 0))
	srv.EnableCoherence(server.CoherenceOptions{AckTimeout: 50 * time.Millisecond})
	defer srv.Close()
	reg := setupRegister(t, mgr)

	defer faultpoint.Reset()
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.CoherencePush})

	reader := newCachingClient(t, srv.Addr().String())
	writer, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	var ops []regOp
	step := func(write bool, do func() (uint64, error)) {
		t.Helper()
		inv := clock.Add(1)
		v, err := do()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, regOp{invoke: inv, ret: clock.Add(1), write: write, value: v})
	}
	readOp := func() (uint64, error) {
		img, err := reader.read(reg.pid)
		if err != nil {
			return 0, err
		}
		return reg.valueOf(img), nil
	}
	step(false, readOp) // caches the seed
	step(true, func() (uint64, error) {
		return 42, writer.WritePage(reg.pid, reg.imageFor(42))
	})
	step(false, readOp) // stale: the callback was dropped

	if ops[2].value != seedValue {
		t.Fatalf("reader saw %#x; expected the stale seed (callback suppressed)", ops[2].value)
	}
	if linearizable(ops, seedValue) {
		t.Fatalf("checker failed to convict a stale read:\n%s", dumpHistory(ops))
	}

	// Same sequence with delivery restored must be exonerated. A fresh
	// reader is required: the suppressed round above still consumed the
	// old reader's interest registration, and its cache-hit reads never
	// re-register — exactly the silent staleness the fault models. The
	// register currently holds 42.
	faultpoint.Reset()
	reader = newCachingClient(t, srv.Addr().String())
	ops = ops[:0]
	step(false, readOp)
	step(true, func() (uint64, error) {
		return 43, writer.WritePage(reg.pid, reg.imageFor(43))
	})
	step(false, readOp)
	if !linearizable(ops, 42) {
		t.Fatalf("healthy delivery convicted:\n%s", dumpHistory(ops))
	}
	if ops[2].value != 43 {
		t.Fatalf("reader saw %#x after acked invalidation, want 43", ops[2].value)
	}
}

func dumpHistory(ops []regOp) string {
	var b bytes.Buffer
	for i, op := range ops {
		kind := "R"
		if op.write {
			kind = "W"
		}
		fmt.Fprintf(&b, "%3d: %s v=%#x [%d,%d]\n", i, kind, op.value, op.invoke, op.ret)
	}
	return b.String()
}
