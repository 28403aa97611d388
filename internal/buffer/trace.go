package buffer

import "gom/internal/trace"

// spanPageFault names the pool's one span, a page fault.
const spanPageFault = "page_fault"

// SetTrace installs (or removes, with nil) the request tracer. src
// supplies the ambient trace context of the operation on whose behalf
// the pool is working (the object manager's current entry-point span);
// pool spans parent under it. Faults that run with no traced operation
// above them record nothing.
func (p *Pool) SetTrace(t *trace.Tracer, src func() trace.Context) {
	p.spans = t
	p.spanCtx = src
}

// traceCtx returns the ambient parent context, or the zero context.
func (p *Pool) traceCtx() trace.Context {
	if p.spanCtx == nil {
		return trace.Context{}
	}
	return p.spanCtx()
}
