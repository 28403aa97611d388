package server

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"

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

// TestWireGolden pins the frame format: a real Client and a real
// TCPServer hold one scripted conversation through a relay that records
// both directions, and every byte that crossed — hello both ways, traced
// Lookup, ReadPage and ReadPages requests, a transient error, a page with
// a two-extent directory, a page run with per-page directory lengths, an
// invalidation push and its acknowledgement — must be the golden file's.
func TestWireGolden(t *testing.T) {
	defer faultpoint.Reset()
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	// Page 1:0 gets objects 1 and 3..5 (2 is deleted: two extents), page
	// 1:1 object 6.
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, mgr)
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})

	// The relay records each direction before forwarding it; both
	// records are complete once relayed is closed.
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	var toServer, toClient bytes.Buffer
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
			io.Copy(io.MultiWriter(&toServer, up), down)
			up.Close()
		}()
		io.Copy(io.MultiWriter(&toClient, down), up)
		down.Close()
		<-sent
	}()

	c, err := Dial(relay.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh tracer numbers its spans 1, 2, 3: the suffixes are fixed.
	c.SetTrace(trace.New(1, 0), func() trace.Context { return trace.Context{TraceID: 0x1111, SpanID: 0x2222} })
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
	<-relayed

	checkGolden(t, toServer.Bytes(), "hello_request", "lookup_request", "read_page_request", "read_pages_request", "coherence_ack")
	checkGolden(t, toClient.Bytes(), "hello_response", "transient_error", "read_page_response", "read_pages_response", "invalidate_push")
}
