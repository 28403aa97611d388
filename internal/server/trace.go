package server

import "gom/internal/trace"

// featureTrace advertises trace-context propagation: once negotiated,
// every pipelined *request* frame carries a fixed trace.WireLen-byte
// suffix encoding the client's current span context (zeros when the
// request is not part of a sampled trace). The suffix rides after the
// opcode payload, so per-opcode encoders and decoders are untouched;
// the server strips it unconditionally before dispatch. Responses are
// never suffixed — the client already knows the context it sent.
const featureTrace = 1 << 1

// featureSnapshot advertises the snapshot extension: opTxBeginSnapshot
// opens a read-only snapshot transaction whose reads are served lock-free
// at a frozen read-LSN (MVCC page versions; see server/txn.go and
// storage/versions.go).
const featureSnapshot = 1 << 2

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
// records a client-side span under it, and — when the connection
// negotiated featureTrace — ships the RPC span's context to the server
// so server-side spans nest under the client-side RPC that caused them.
func (c *Client) SetTrace(t *trace.Tracer, src func() trace.Context) {
	c.spans = t
	c.spanCtx = src
}

// hasTrace reports whether the connection negotiated trace propagation.
func (c *Client) hasTrace() bool { return c.pipelined && c.features&featureTrace != 0 }

// traceCtx returns the caller's ambient context, or the zero context.
func (c *Client) traceCtx() trace.Context {
	if c.spanCtx == nil {
		return trace.Context{}
	}
	return c.spanCtx()
}

// SetTracer installs (or removes, with nil) the tracer recording
// server-side spans. Safe to call while the server is running; spans
// are only recorded for requests whose connection negotiated
// featureTrace and whose client context is sampled.
func (s *TCPServer) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// Tracer returns the installed server-side tracer, or nil.
func (s *TCPServer) Tracer() *trace.Tracer { return s.tracer.Load() }

// SetFeatures overrides the feature bits the server advertises in its
// hello response (intersected with what the client offers). A test
// hook: emulating a v2 server without featureTrace exercises the
// client's no-suffix interoperability path.
func (s *TCPServer) SetFeatures(mask uint32) {
	s.featureOverride.Store(mask | featureMaskValid)
}

// featureMaskValid marks featureOverride as explicitly set (so a zero
// override — "no features" — is distinguishable from "not overridden").
const featureMaskValid = 1 << 31

// Exported names for the feature bits, for SetFeatures callers (tests
// emulating down-level peers).
const (
	FeatureBatch     = featureBatch
	FeatureTrace     = featureTrace
	FeatureSnapshot  = featureSnapshot
	FeatureCoherence = featureCoherence
	FeaturePageDir   = featurePageDir
)

// serverFeatures returns the feature bits this server offers.
func (s *TCPServer) serverFeatures() uint32 {
	if v := s.featureOverride.Load(); v&featureMaskValid != 0 {
		return v &^ featureMaskValid
	}
	f := uint32(featureBatch | featureTrace | featureSnapshot | featurePageDir)
	if s.coh.Load() != nil {
		// Coherence is only offered once EnableCoherence installed the
		// interest table; clients that skip the bit (or v1 peers) keep
		// the plain protocol.
		f |= featureCoherence
	}
	return f
}
