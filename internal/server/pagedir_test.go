package server

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

// dirFixture serves a transactional, coherent manager holding a few pages
// of objects and returns the objects with their addresses.
func dirFixture(t *testing.T) (*TCPServer, *storage.Manager, []oid.OID, []storage.PAddr) {
	t.Helper()
	mgr := storage.NewManager(1)
	for _, seg := range []uint16{0, 1} { // exercise() works in segment 0
		if err := mgr.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	var ids []oid.OID
	var addrs []storage.PAddr
	for i := 0; i < 40; i++ {
		id, addr, err := mgr.Allocate(1, bytes.Repeat([]byte{byte(i)}, 400))
		if err != nil {
			t.Fatal(err)
		}
		ids, addrs = append(ids, id), append(addrs, addr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(mgr, time.Second))
	srv.EnableCoherence(CoherenceOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv, mgr, ids, addrs
}

// checkPageRead holds one page read off the wire to the manager: the image
// is the disk's, and the directory places every object of the page where
// the POT does.
func checkPageRead(t *testing.T, mgr *storage.Manager, pid page.PageID, got []byte) {
	t.Helper()
	img, dir, err := page.SplitImage(got)
	if err != nil {
		t.Fatalf("page %v: %v", pid, err)
	}
	want, wantD, err := mgr.Disk().ReadPageDir(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("page %v: image differs from the disk's", pid)
	}
	if !bytes.Equal(dir, wantD.Shipped()) || dir.Len() == 0 {
		t.Fatalf("page %v: shipped directory %v, the manager's is %v", pid, dir.Entries(), wantD.Entries())
	}
}

// TestPageDirectoriesOnTheWire: a client gets every page — single or in a
// run, outside a transaction, inside a 2PL one or under a snapshot — with
// its directory behind the image. One page answer for every backend.
func TestPageDirectoriesOnTheWire(t *testing.T) {
	srv, mgr, ids, addrs := dirFixture(t)
	reg := metrics.New()
	srv.SetMetrics(reg)
	first, last := addrs[0].Page, addrs[len(addrs)-1].Page
	nPages := int(last.No()-first.No()) + 1

	readAll := func(t *testing.T, c *Client) {
		t.Helper()
		for pid := first; pid <= last; pid++ {
			got, err := c.ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			checkPageRead(t, mgr, pid, got)
		}
		run, err := c.ReadPages(first, nPages+3) // over-ask: truncated at the segment end
		if err != nil {
			t.Fatal(err)
		}
		if len(run) != nPages {
			t.Fatalf("run of %d pages, want %d", len(run), nPages)
		}
		for i, got := range run {
			checkPageRead(t, mgr, first+page.PageID(i), got)
		}
		// The addresses a directory gives are the POT's.
		got, _ := c.ReadPage(addrs[7].Page)
		_, dir, _ := page.SplitImage(got)
		if slot, ok := dir.Find(ids[7]); !ok || slot != int(addrs[7].Slot) {
			t.Fatalf("directory places %v in slot %d, %v; the POT at %v", ids[7], slot, ok, addrs[7])
		}
	}

	full, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	readAll(t, full)
	if _, err := full.BeginTx(); err != nil {
		t.Fatal(err)
	}
	readAll(t, full) // a 2PL session ships them too
	if err := full.CommitTx(); err != nil {
		t.Fatal(err)
	}
	shipped := reg.Count(metrics.CtrPageDirExtents)
	if shipped == 0 {
		t.Fatal("page_dir_extents stayed 0 while directories were shipped")
	}

	// And so does a snapshot session: the state at its read point.
	if _, _, err := full.BeginSnapshotTx(); err != nil {
		t.Fatal(err)
	}
	readAll(t, full)
	if err := full.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Count(metrics.CtrPageDirExtents), 3*shipped/2; got != want {
		t.Fatalf("page_dir_extents = %d after the snapshot read what each session before it read, want %d", got, want)
	}
	if got := reg.Count(metrics.CtrSnapshotDirWithheld); got != 0 {
		t.Fatalf("snapshot_dir_withheld = %d with no object versioned", got)
	}
}

// TestShippedDirectoryIsCapped: a page more fragmented than the cap ships
// the first MaxShippedExtents extents, a valid directory of its own.
// fragmentedMgr holds one page, 1:0, of MaxShippedExtents+4 extents of one
// object each — every other object allocated was deleted, so no two
// survivors join — and returns the survivors in slot order: the last four
// lie past the shipping cap.
func fragmentedMgr(t *testing.T) (*storage.Manager, []oid.OID) {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	var kept []oid.OID
	for i := 0; i < 2*(page.MaxShippedExtents+4); i++ {
		id, _, err := mgr.Allocate(1, make([]byte, 40))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			kept = append(kept, id)
		} else if err := mgr.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return mgr, kept
}

func TestShippedDirectoryIsCapped(t *testing.T) {
	mgr, _ := fragmentedMgr(t)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := Serve(ln, mgr)
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pid := page.NewPageID(1, 0)
	got, err := c.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	_, dir, err := page.SplitImage(got)
	if err != nil {
		t.Fatal(err)
	}
	_, full, _ := mgr.Disk().ReadPageDir(pid)
	if full.Len() != page.MaxShippedExtents+4 || dir.Len() != page.MaxShippedExtents {
		t.Fatalf("page holds %d extents, %d were shipped; want %d and %d", full.Len(), dir.Len(), page.MaxShippedExtents+4, page.MaxShippedExtents)
	}
	run, err := c.ReadPages(pid, 1)
	if err != nil || !bytes.Equal(run[0], got) {
		t.Fatalf("run read differs from single read: %v", err)
	}
}

// TestClientRejectsMalformedPageReads feeds the client's two page-read
// decoders responses a broken or hostile server could send.
func TestClientRejectsMalformedPageReads(t *testing.T) {
	img := page.New(page.NewPageID(1, 0)).CloneImage()
	ext := make([]byte, page.ExtentSize)
	binary.LittleEndian.PutUint64(ext, 7)
	binary.LittleEndian.PutUint16(ext[10:], 1)
	with := func(trailer ...byte) []byte { return append(append([]byte(nil), img...), trailer...) }

	for name, tc := range map[string]struct {
		b  []byte
		ok bool
	}{
		"bare image":                     {img, true},
		"one extent":                     {with(ext...), true},
		"half an extent":                 {with(ext[:6]...), false},
		"short image":                    {img[:page.Size-1], false},
		"more extents than the cap":      {with(make([]byte, (page.MaxShippedExtents+1)*page.ExtentSize)...), false},
		"an extent that names no object": {with(make([]byte, page.ExtentSize)...), false},
	} {
		if got := validPageRead(tc.b); got != tc.ok {
			t.Errorf("%s: validPageRead = %v, want %v", name, got, tc.ok)
		}
	}
}
