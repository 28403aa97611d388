package server

import "gom/internal/trace"

// clientSpanNames and serverSpanNames are indexed by wire opcode;
// precomputed so starting a span never builds a string.
var clientSpanNames = [numOpcodes]string{
	opLookup:       "rpc:lookup",
	opReadPage:     "rpc:read_page",
	opWritePage:    "rpc:write_page",
	opAllocate:     "rpc:allocate",
	opAllocateNear: "rpc:allocate_near",
	opUpdateObject: "rpc:update_object",
	opNumPages:     "rpc:num_pages",
	opTxBegin:      "rpc:tx_begin",
	opTxCommit:     "rpc:tx_commit",
	opTxAbort:      "rpc:tx_abort",
	opHello:        "rpc:hello",
	opLookupBatch:  "rpc:lookup_batch",
	opReadPages:    "rpc:read_pages",

	opTxBeginSnapshot: "rpc:tx_begin_snapshot",
	opInvalidate:      "rpc:invalidate",
	opCoherenceAck:    "rpc:coherence_ack",
}

var serverSpanNames = [numOpcodes]string{
	opLookup:       "server:lookup",
	opReadPage:     "server:read_page",
	opWritePage:    "server:write_page",
	opAllocate:     "server:allocate",
	opAllocateNear: "server:allocate_near",
	opUpdateObject: "server:update_object",
	opNumPages:     "server:num_pages",
	opTxBegin:      "server:tx_begin",
	opTxCommit:     "server:tx_commit",
	opTxAbort:      "server:tx_abort",
	opHello:        "server:hello",
	opLookupBatch:  "server:lookup_batch",
	opReadPages:    "server:read_pages",

	opTxBeginSnapshot: "server:tx_begin_snapshot",
	opInvalidate:      "server:invalidate",
	opCoherenceAck:    "server:coherence_ack",
}

func spanName(tab *[numOpcodes]string, op byte) string {
	if int(op) < len(tab) {
		return tab[op]
	}
	return "rpc:unknown"
}

// SetTrace installs (or removes, with nil) the request tracer on the
// client. src supplies the caller's ambient span context: each RPC
// records a client-side span under it and ships the RPC span's context
// to the server in the request frame's suffix, so server-side spans nest
// under the client-side RPC that caused them.
func (c *Client) SetTrace(t *trace.Tracer, src func() trace.Context) {
	c.spans = t
	c.spanCtx = src
}

// traceCtx returns the caller's ambient context, or the zero context.
func (c *Client) traceCtx() trace.Context {
	if c.spanCtx == nil {
		return trace.Context{}
	}
	return c.spanCtx()
}

// SetTracer installs (or removes, with nil) the tracer recording
// server-side spans. Safe to call while the server is running; spans
// are only recorded for requests whose client context is sampled.
func (s *TCPServer) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// Tracer returns the installed server-side tracer, or nil.
func (s *TCPServer) Tracer() *trace.Tracer { return s.tracer.Load() }
