package server

import (
	"encoding/binary"
	"net"
	"testing"

	"gom/internal/page"
	"gom/internal/storage"
)

// readpathFixture builds a manager with one segment and a few pages and
// returns a Local backend plus the PageID of the first page.
func readpathFixture(t testing.TB) (*Local, page.PageID) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 256)
	for i := 0; i < 32; i++ {
		rec[0] = byte(i)
		if _, _, err := mgr.Allocate(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	return NewLocal(mgr), page.NewPageID(1, 0)
}

// TestServerReadPageHotZeroAlloc is the allocation guard on the server's
// hot ReadPage response path: with the copy-on-write store handing out
// borrowed images (seal mode off, the production default) and pooled
// frames, serving a page read must not allocate at steady state. CI runs
// this test on every push; a regression here is a performance bug even
// while all functional tests stay green.
func TestServerReadPageHotZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool deliberately bypasses pooling under the race detector; the zero-alloc guard holds only in non-race builds")
	}
	prev := storage.SetSealReads(false)
	defer storage.SetSealReads(prev)

	backend, pid := readpathFixture(t)
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(pid))

	// Warm the pools so the measurement sees steady state. The frame
	// measured is the one with the page's directory attached.
	for i := 0; i < 16; i++ {
		n, err := serveReadPageFrame(backend, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := 4 + 1 + 8 + page.Size + page.ExtentSize; n != want {
			t.Fatalf("frame of %d bytes, want %d: header, image and a one-extent directory", n, want)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := serveReadPageFrame(backend, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot ReadPage path allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkServerReadPageHot measures the server-side ReadPage response
// path in isolation (decode, page read, frame assembly, release — no
// socket).
func BenchmarkServerReadPageHot(b *testing.B) {
	backend, pid := readpathFixture(b)
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(pid))

	b.Run("zerocopy", func(b *testing.B) {
		prev := storage.SetSealReads(false)
		defer storage.SetSealReads(prev)
		b.ReportAllocs()
		b.SetBytes(page.Size)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := serveReadPageFrame(backend, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPipelinedPoolBalance runs real pipelined traffic — including error
// responses and page-shipping opcodes — through a TCP server, then checks
// the pool leak accounting: every pooled message buffer and response
// frame taken during the run must have been returned. This is the
// regression net for the frame lifecycle (borrowed pages especially must
// not be pinned by pooled frames).
func TestPipelinedPoolBalance(t *testing.T) {
	backend, pid := readpathFixture(t)
	mgr := backend.Manager()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)

	prevDebug := SetPoolDebug(true)
	defer SetPoolDebug(prevDebug)

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 50; round++ {
		if _, err := cl.ReadPage(pid); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReadPages(pid, 4); err != nil {
			t.Fatal(err)
		}
		// Error path: a page in a segment that does not exist.
		if _, err := cl.ReadPage(page.NewPageID(99, 0)); err == nil {
			t.Fatal("read of a missing segment succeeded")
		}
		if _, err := cl.NumPages(1); err != nil {
			t.Fatal(err)
		}
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	bufs, frames := PoolOutstanding()
	if bufs != 0 || frames != 0 {
		t.Fatalf("pool leak: %d message buffers and %d response frames outstanding after shutdown", bufs, frames)
	}
}
