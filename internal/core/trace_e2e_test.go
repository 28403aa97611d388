package core

import (
	"net"
	"testing"

	"gom/internal/server"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// tcpBase serves the base over real TCP with a server-side tracer
// installed and returns a dialed client plus both tracers.
func tcpBase(t *testing.T, b *testBase) (*server.Client, *trace.Tracer, *trace.Tracer, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(ln, b.srv.Manager())
	serverTr := trace.New(1, 512)
	srv.SetTracer(serverTr)
	client, err := server.Dial(srv.Addr().String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	clientTr := trace.New(1, 512)
	return client, clientTr, serverTr, func() {
		client.Close()
		srv.Close()
	}
}

// traceWorkload drives OM entry points that fault objects over the wire
// (buffer of 4 pages, so dereferences miss continuously).
func traceWorkload(t *testing.T, b *testBase, client *server.Client, clientTr *trace.Tracer) {
	t.Helper()
	om, err := New(Options{Server: client, Schema: b.schema, PageBufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	om.SetTrace(clientTr)
	om.BeginApplication(appSpec(swizzle.LIS))
	p := om.NewVar("p", b.part)
	c := om.NewVar("c", b.conn)
	q := om.NewVar("q", b.part)
	for i := 0; i < 20; i++ {
		if err := om.Load(p, b.parts[i*3%len(b.parts)]); err != nil {
			t.Fatal(err)
		}
		if err := om.Deref(p); err != nil {
			t.Fatal(err)
		}
		if err := om.ReadElem(p, "connTo", 0, c); err != nil {
			t.Fatal(err)
		}
		if err := om.ReadRef(c, "to", q); err != nil {
			t.Fatal(err)
		}
		if err := om.Deref(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSpansNestAcrossTCP is the end-to-end tracing contract: a
// server-side storage span must be a transitive child of the client-side
// OM entry-point span that caused it — the trace context crosses the
// wire.
func TestTraceSpansNestAcrossTCP(t *testing.T) {
	b := buildBase(t, 60)
	client, clientTr, serverTr, done := tcpBase(t, b)
	defer done()
	traceWorkload(t, b, client, clientTr)

	clientSpans := map[uint64]trace.Record{}
	for _, r := range clientTr.Records() {
		clientSpans[r.SpanID] = r
	}
	serverRecs := serverTr.Records()
	if len(serverRecs) == 0 {
		t.Fatal("no server-side spans recorded over TCP")
	}

	// Walk each server span's parent chain through the client's spans up
	// to its root and remember the entry-point names reached.
	roots := map[string]int{}
	for _, sr := range serverRecs {
		if sr.Parent == 0 {
			t.Fatalf("server span %q has no parent context", sr.Name)
		}
		cur, ok := clientSpans[sr.Parent]
		if !ok {
			t.Fatalf("server span %q parent %#x not found among client spans", sr.Name, sr.Parent)
		}
		if cur.TraceID != sr.TraceID {
			t.Fatalf("trace id mismatch: server %#x client %#x", sr.TraceID, cur.TraceID)
		}
		for cur.Parent != 0 {
			next, ok := clientSpans[cur.Parent]
			if !ok {
				t.Fatalf("broken parent chain at client span %q", cur.Name)
			}
			cur = next
		}
		roots[cur.Name]++
	}
	if roots["deref"] == 0 {
		t.Fatalf("no server span is a transitive child of a client deref span; roots = %v", roots)
	}
}
