package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
	"gom/internal/trace"
)

// goldenFrames reads testdata/wire_v2.golden: one frame a line, a name and
// then its fields in hex, "*N" for N bytes the file does not pin (a page
// image).
func goldenFrames(t *testing.T) map[string][]string {
	t.Helper()
	text, err := os.ReadFile("testdata/wire_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	frames := map[string][]string{}
	for _, line := range strings.Split(string(text), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if fields := strings.Fields(line); len(fields) > 0 {
			frames[fields[0]] = fields[1:]
		}
	}
	return frames
}

// checkGolden holds one direction of a recorded connection to the named
// golden frames, field by field, in order and with nothing left over.
func checkGolden(t *testing.T, stream []byte, names ...string) {
	t.Helper()
	frames := goldenFrames(t)
	for _, name := range names {
		if frames[name] == nil {
			t.Fatalf("testdata/wire_v2.golden has no frame %q", name)
		}
		for i, want := range frames[name] {
			n := len(want) / 2
			if run, unpinned := strings.CutPrefix(want, "*"); unpinned {
				n, _ = strconv.Atoi(run)
			}
			if len(stream) < n {
				t.Fatalf("%s: the stream ends %d bytes into field %d (%s)", name, len(stream), i, want)
			}
			if got := hex.EncodeToString(stream[:n]); want[0] != '*' && got != want {
				t.Errorf("%s: field %d is %s, the golden frame has %s", name, i, got, want)
			}
			stream = stream[n:]
		}
	}
	if len(stream) != 0 {
		t.Errorf("%d bytes after the last golden frame: %x", len(stream), stream)
	}
}

// goldenBytes is the named golden frame as bytes; it may not hold an
// unpinned field.
func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	fields := goldenFrames(t)[name]
	if fields == nil {
		t.Fatalf("testdata/wire_v2.golden has no frame %q", name)
	}
	b, err := hex.DecodeString(strings.Join(fields, ""))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// goldenMgr builds the object base of the golden conversations: page 1:0
// gets objects 1 and 3..5 (2 is deleted: two extents), page 1:1 object 6.
func goldenMgr(t *testing.T) *storage.Manager {
	t.Helper()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{16, 16, 16, 1500, 1500, 1500} {
		id, _, err := mgr.Allocate(1, make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := mgr.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mgr
}

// recordedDial dials the server through a relay that records each
// direction before forwarding it; recorded returns both records once the
// client has been closed. A fresh tracer numbers the client's spans 1, 2,
// 3, so the trace suffixes are fixed.
func recordedDial(t *testing.T, srv *TCPServer) (c *Client, recorded func() (toServer, toClient []byte)) {
	t.Helper()
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	var up2, down2 bytes.Buffer
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		down, err := relay.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			down.Close()
			return
		}
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			io.Copy(io.MultiWriter(&up2, up), down)
			up.Close()
		}()
		io.Copy(io.MultiWriter(&down2, down), up)
		down.Close()
		<-sent
	}()
	c, err = Dial(relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.SetTrace(trace.New(1, 0), func() trace.Context { return trace.Context{TraceID: 0x1111, SpanID: 0x2222} })
	return c, func() ([]byte, []byte) {
		<-relayed
		return up2.Bytes(), down2.Bytes()
	}
}

// TestWireGolden pins the frame format: a real Client and a real
// transactional TCPServer hold one scripted conversation outside a
// transaction through a relay that records both directions, and every byte
// that crossed — hello both ways, traced Lookup, ReadPage and ReadPages
// requests, a transient error, a page with a two-extent directory, a page
// run with per-page directory lengths, an invalidation push and its
// acknowledgement — must be the golden file's. Each request runs as a
// transaction of its own, and a transaction puts no frame of its own on
// the wire.
func TestWireGolden(t *testing.T) {
	defer faultpoint.Reset()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(goldenMgr(t), time.Second))
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})

	c, recorded := recordedDial(t, srv)
	pushed := make(chan string, 1)
	c.OnInvalidate(func(epoch uint64, pids []page.PageID) { pushed <- fmt.Sprint(epoch, pids) })

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.ServerLookup, Times: 1, Err: fmt.Errorf("%w: injected blip", ErrTransient)})
	if _, err := c.Lookup(oid.MustNew(1, 7)); !errors.Is(err, ErrTransient) {
		t.Fatalf("Lookup under an injected transient fault = %v, want ErrTransient", err)
	}
	pid := page.NewPageID(1, 0)
	img, err := c.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if run, err := c.ReadPages(pid, 2); err != nil || len(run) != 2 {
		t.Fatalf("ReadPages = %d pages, %v", len(run), err)
	}
	// The client read page 1:0, so another connection's write to it
	// calls the client back; WritePage returns once the ack is in.
	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.WritePage(pid, imageOf(t, img)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-pushed:
		if want := fmt.Sprint(uint64(1), []page.PageID{pid}); got != want {
			t.Errorf("push decoded as %s, want %s", got, want)
		}
	default:
		t.Error("the writer returned before the client saw a push")
	}
	c.Close()
	toServer, toClient := recorded()

	checkGolden(t, toServer, "hello_request_begin_validates", "lookup_request", "read_page_request", "read_pages_request", "coherence_ack")
	checkGolden(t, toClient, "hello_response_tx_begin_validates", "transient_error", "read_page_response", "read_pages_response", "invalidate_push")
}

// TestWireGoldenTransaction pins what a transaction puts on the wire
// against a transactional server: the hello answer with the transactional
// bit, a begin that leaves in one write with the transaction's first data
// request, the Lookup answer that brings its page (so the ReadPage that
// follows sends nothing), the commit — and nothing at all for a
// transaction that ends before it has asked for anything.
func TestWireGoldenTransaction(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(goldenMgr(t), time.Second))
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})

	c, recorded := recordedDial(t, srv)
	for _, silent := range []func() error{c.CommitTx, c.AbortTx} {
		if _, err := c.BeginTx(); err != nil {
			t.Fatal(err)
		}
		if err := silent(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	addr, err := c.Lookup(oid.MustNew(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := (storage.PAddr{Page: page.NewPageID(1, 0), Slot: 2}); addr != want {
		t.Fatalf("Lookup = %v, want %v", addr, want)
	}
	got, err := c.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if _, dir, err := page.SplitImage(got); err != nil || dir.Len() != 2 {
		t.Fatalf("the staged page splits into %d extents, %v; want 2", dir.Len(), err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	toServer, toClient := recorded()

	checkGolden(t, toServer, "hello_request_begin_validates", "tx_begin_with_lookup", "tx_commit_request")
	checkGolden(t, toClient, "hello_response_tx_begin_validates", "tx_begin_response", "lookup_response_with_page", "tx_commit_response")
}

// TestWireGoldenSnapshotBegin pins the snapshot begin of a coherent
// connection: the request names the connection's previous read-LSN, and the
// answer carries, behind {tx, readLSN}, "cannot tell" (the first begin has
// no previous read point) or the pages changed since — here the one page
// another connection's transaction wrote in between. A ReadPage under the
// snapshot then answers as a live one does: the image and its directory.
func TestWireGoldenSnapshotBegin(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(goldenMgr(t), time.Second))
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	pid := page.NewPageID(1, 0)
	rewrite := func() {
		t.Helper()
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
		if err := writer.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}

	c, recorded := recordedDial(t, srv)
	var named []string
	c.OnInvalidate(func(epoch uint64, pids []page.PageID) { named = append(named, fmt.Sprint(epoch, pids)) })
	c.OnLeaseExpired(func() { named = append(named, "all") })
	rewrite() // the stable point leaves 0, which a request cannot tell from "no previous read point"
	_, first, err := c.BeginSnapshotTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
	rewrite()
	_, second, err := c.BeginSnapshotTx()
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 2 {
		t.Errorf("read-LSNs %d and %d, want 1 and 2", first, second)
	}
	c.OnLeaseExpired(nil) // closing the connection expires the lease, on the read loop
	if want := []string{"all", fmt.Sprint(uint64(0), []page.PageID{pid})}; !slices.Equal(named, want) {
		t.Errorf("the handlers were told %v, want %v", named, want)
	}
	got, err := c.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if _, dir, err := page.SplitImage(got); err != nil || dir.Len() != 2 {
		t.Fatalf("the snapshot page splits into %d extents, %v; want 2", dir.Len(), err)
	}
	c.Close()
	toServer, toClient := recorded()

	checkGolden(t, toServer, "hello_request_begin_validates", "snapshot_begin_request_first", "snapshot_commit_request", "snapshot_begin_request", "snapshot_read_page_request")
	checkGolden(t, toClient, "hello_response_tx_begin_validates", "snapshot_begin_response_unknown", "snapshot_commit_response", "snapshot_begin_response_list", "snapshot_read_page_response")
}

// TestWireGoldenOldBaselineRefused: the hello frames of the baseline
// before the validating snapshot begin are still in the golden file, and
// each side refuses them — the server with one error frame and a closed
// connection, the client with ErrIncompatiblePeer.
func TestWireGoldenOldBaselineRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, NewTxServer(goldenMgr(t), time.Second))
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})
	conn, r := sendRaw(t, srv, goldenBytes(t, "hello_request_lookup_page"))
	defer conn.Close()
	answer, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, answer, "lookup_page_baseline_refusal")

	if cl, err := DialWith(helloReplay(t, "hello_response_tx"), DialOptions{DialTimeout: 2 * time.Second}); !errors.Is(err, ErrIncompatiblePeer) {
		if err == nil {
			cl.Close()
		}
		t.Errorf("dialing a server of the old baseline = %v, want ErrIncompatiblePeer", err)
	}
}

// TestWireGoldenPlainHelloAccepted: a server that is not transactional
// offers no coherence any more, but the client still accepts the golden
// hello answer of one that did — the current baseline with coherence and
// without tx — and reports coherence without transactions.
func TestWireGoldenPlainHelloAccepted(t *testing.T) {
	cl, err := DialWith(helloReplay(t, "hello_response_plain_begin_validates"), DialOptions{DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !cl.HasCoherence() {
		t.Error("the client does not report the coherence the hello agreed")
	}
	if _, err := cl.BeginTx(); !errors.Is(err, errNotTransactional) {
		t.Errorf("BeginTx = %v, want %v", err, errNotTransactional)
	}
}

// helloReplay listens for one connection, answers its hello with the named
// golden frame and keeps the connection open until the client closes it;
// it returns the address to dial.
func helloReplay(t *testing.T, name string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	answer := goldenBytes(t, name)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, _, err := readMsg(r); err == nil {
			conn.Write(answer)
			io.Copy(io.Discard, r)
		}
	}()
	return ln.Addr().String()
}
