package core

import "gom/internal/trace"

// Span names. Constants so starting a span never builds a string.
const (
	spanLoad     = "load"
	spanDeref    = "deref"
	spanReadInt  = "read_int"
	spanReadStr  = "read_str"
	spanReadRef  = "read_ref"
	spanReadElem = "read_elem"
	spanCard     = "card"
	spanWrite    = "update"
	spanCreate   = "create"
	spanCommit   = "commit"
	spanBegin    = "begin_application"

	spanObjectFault = "object_fault"
)

// SetTrace installs (or removes, with nil) the request tracer on the
// object manager, its buffer pool, and — when the server transport
// supports it (server.Client) — the RPC layer, so spans started at
// entry points here parent the downstream fault and RPC spans. Call
// before issuing operations; it is not synchronized against in-flight
// calls.
func (om *OM) SetTrace(t *trace.Tracer) {
	om.spans = t
	om.pool.SetTrace(t, om.TraceContext)
	if tc, ok := om.srv.(interface {
		SetTrace(*trace.Tracer, func() trace.Context)
	}); ok {
		tc.SetTrace(t, om.TraceContext)
	}
}

// TraceContext returns the trace context of the operation currently
// executing on the object manager (the ambient context downstream
// layers parent under), or the zero context when none is sampled.
func (om *OM) TraceContext() trace.Context {
	if p := om.curCtx.Load(); p != nil {
		return *p
	}
	return trace.Context{}
}

// opSpan is a sampled entry-point span with the ambient context it
// installed and the one it replaced.
type opSpan struct {
	sp   trace.Span
	ctx  trace.Context
	prev *trace.Context
}

// startOp opens a root span for one object-manager entry point and
// installs it as the ambient context; use as
//
//	defer om.endOp(om.startOp(name))
//
// With no tracer installed it is a nil check and a deferred call on a nil
// pointer (≈ 1 ns; it built and returned an 80-byte zero span before, 11 ns
// ten times per visited object). An installed tracer adds its sampling
// decision; only a sampled operation allocates, the opSpan.
func (om *OM) startOp(name string) *opSpan {
	if om.spans == nil {
		return nil
	}
	sp := om.spans.Start(name, trace.Context{})
	if !sp.Sampled() {
		return nil
	}
	o := &opSpan{sp: sp, ctx: sp.Context()}
	o.prev = om.curCtx.Swap(&o.ctx)
	return o
}

// endOp closes a root span and restores the previous ambient context.
func (om *OM) endOp(o *opSpan) {
	if o == nil {
		return
	}
	om.curCtx.Store(o.prev)
	o.sp.Finish()
}
