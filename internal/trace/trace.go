// Package trace implements lightweight request tracing for the object
// manager and the page-server protocol. A span covers one timed operation
// (a Deref, an object fault, an RPC, a server-side page read); spans form
// a tree via (trace ID, span ID, parent span ID) triples that propagate
// from object-manager entry points through buffer-pool faults and — in
// the suffix of every request frame — across the wire, so a
// server-side storage span parents correctly under the client-side
// operation that caused it.
//
// The tracer is built to be left enabled in production: head-based
// sampling decides at the *root* span whether a request is traced, every
// child inherits the decision, and the unsampled path costs two branches
// and zero allocations. Sampled spans record into fixed-size sharded
// rings (old records are overwritten), so memory is bounded regardless of
// run length.
package trace

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Context identifies a position in a trace: the trace a request belongs
// to and the span that is currently open. The zero Context means "not
// traced" — spans started under it fall back to the root-sampling
// decision.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// Traced reports whether the context carries an active, sampled trace.
func (c Context) Traced() bool { return c.TraceID != 0 }

// Record is one finished span.
type Record struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // 0 for root spans
	Name    string // a package-level constant; never retained user data
	Start   int64  // wall clock, Unix nanoseconds
	Dur     int64  // nanoseconds
	A, B    uint64 // operation-specific arguments (OID, page, bytes, ...)
}

// Span is an open span. The zero Span is valid and inert: every method
// is a no-op, so call sites need no nil checks on the unsampled path.
// Spans are values; they may be copied (e.g. into a deferred call) as
// long as Finish runs on a copy that has seen all SetArgs calls.
type Span struct {
	t     *Tracer
	ctx   Context
	par   uint64
	name  string
	start int64
	a, b  uint64
}

// Sampled reports whether the span is live (recording on Finish).
func (sp Span) Sampled() bool { return sp.t != nil }

// Context returns the span's context, for propagation to children. The
// zero Span returns the zero Context.
func (sp Span) Context() Context { return sp.ctx }

// SetArgs attaches two operation-specific arguments to the span.
func (sp *Span) SetArgs(a, b uint64) {
	if sp.t == nil {
		return
	}
	sp.a, sp.b = a, b
}

// Finish closes the span and records it.
func (sp Span) Finish() {
	if sp.t == nil {
		return
	}
	sp.t.record(Record{
		TraceID: sp.ctx.TraceID,
		SpanID:  sp.ctx.SpanID,
		Parent:  sp.par,
		Name:    sp.name,
		Start:   sp.start,
		Dur:     time.Now().UnixNano() - sp.start,
		A:       sp.a,
		B:       sp.b,
	})
}

const (
	// DefaultDepth is the default per-shard ring capacity.
	DefaultDepth = 1024
	// shards spreads record appends; 16 is plenty (appends are rare —
	// only sampled spans reach the ring).
	shards = 16
)

type shard struct {
	mu   sync.Mutex
	ring []Record
	next uint64 // total records ever written to this shard
	_    [40]byte
}

// Tracer samples and stores spans. A nil *Tracer is valid: Start returns
// the inert zero Span.
type Tracer struct {
	rate  int64 // sample 1 in rate roots; <=0 disables, 1 samples all
	ids   atomic.Uint64
	roots atomic.Uint64 // root spans seen, for head sampling
	sh    [shards]shard
}

// New returns a tracer sampling one in rate root spans, each shard
// retaining up to depth finished spans (<=0 selects DefaultDepth).
func New(rate int, depth int) *Tracer {
	if depth <= 0 {
		depth = DefaultDepth
	}
	t := &Tracer{rate: int64(rate)}
	for i := range t.sh {
		t.sh[i].ring = make([]Record, 0, depth)
	}
	return t
}

// Start opens a span under parent. With a traced parent the span joins
// its trace unconditionally; with a zero parent it is a root, subject to
// head sampling. A nil tracer, or an unsampled root, yields the inert
// zero Span — no allocation, no time syscall.
func (t *Tracer) Start(name string, parent Context) Span {
	if t == nil {
		return Span{}
	}
	if parent.TraceID == 0 {
		r := t.rate
		if r <= 0 || (r > 1 && t.roots.Add(1)%uint64(r) != 0) {
			return Span{}
		}
		id := t.ids.Add(1)
		return Span{
			t:     t,
			ctx:   Context{TraceID: id, SpanID: id},
			name:  name,
			start: time.Now().UnixNano(),
		}
	}
	return Span{
		t:     t,
		ctx:   Context{TraceID: parent.TraceID, SpanID: t.ids.Add(1)},
		par:   parent.SpanID,
		name:  name,
		start: time.Now().UnixNano(),
	}
}

// StartChild opens a span only when the parent is itself traced — for
// interior operations (faults, RPCs, server work) that should join the
// requesting operation's trace but never begin a trace of their own.
func (t *Tracer) StartChild(name string, parent Context) Span {
	if t == nil || !parent.Traced() {
		return Span{}
	}
	return t.Start(name, parent)
}

// RecordSpan records an already-finished interval as a child span of
// parent — for retroactive phase spans whose timing was measured
// elsewhere (the commit pipeline stamps phase boundaries on the request
// and the server emits them as spans after the fact). Like StartChild it
// records only under a traced parent. It returns the new span's ID
// (0 when nothing was recorded) so callers can nest further spans.
func (t *Tracer) RecordSpan(name string, parent Context, start time.Time, d time.Duration, a, b uint64) uint64 {
	if t == nil || !parent.Traced() || start.IsZero() {
		return 0
	}
	id := t.ids.Add(1)
	t.record(Record{
		TraceID: parent.TraceID,
		SpanID:  id,
		Parent:  parent.SpanID,
		Name:    name,
		Start:   start.UnixNano(),
		Dur:     int64(d),
		A:       a,
		B:       b,
	})
	return id
}

func (t *Tracer) record(r Record) {
	s := &t.sh[r.SpanID%shards]
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, r)
	} else {
		s.ring[s.next%uint64(cap(s.ring))] = r
	}
	s.next++
	s.mu.Unlock()
}

// Records returns a snapshot of all retained spans, ordered by start
// time (ties by span ID, so output is deterministic).
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	var out []Record
	for i := range t.sh {
		s := &t.sh[i]
		s.mu.Lock()
		out = append(out, s.ring...)
		s.mu.Unlock()
	}
	sortRecords(out)
	return out
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.sh {
		s := &t.sh[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// Reset discards all retained spans (sampling counters keep running).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.sh {
		s := &t.sh[i]
		s.mu.Lock()
		s.ring = s.ring[:0]
		s.next = 0
		s.mu.Unlock()
	}
}

func sortRecords(rs []Record) {
	// Insertion-friendly sizes are rare here; a simple sort suffices and
	// avoids importing sort's interface machinery in callers.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func less(a, b Record) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.SpanID < b.SpanID
}

// Wire encoding: every request frame of the page-server protocol carries
// a fixed WireLen-byte suffix encoding the client's current context. A
// fixed length keeps the suffix separable from variable-length payloads
// without touching per-opcode decoders.
const WireLen = 17 // [flags][traceID 8][spanID 8], little endian

// PutWire encodes ctx into b, which must hold WireLen bytes. An
// untraced context encodes as all zeros.
func PutWire(b []byte, ctx Context) {
	_ = b[WireLen-1]
	if !ctx.Traced() {
		for i := 0; i < WireLen; i++ {
			b[i] = 0
		}
		return
	}
	b[0] = 1
	binary.LittleEndian.PutUint64(b[1:9], ctx.TraceID)
	binary.LittleEndian.PutUint64(b[9:17], ctx.SpanID)
}

// FromWire decodes a context encoded by PutWire. Short or unsampled
// input yields the zero Context.
func FromWire(b []byte) Context {
	if len(b) < WireLen || b[0]&1 == 0 {
		return Context{}
	}
	return Context{
		TraceID: binary.LittleEndian.Uint64(b[1:9]),
		SpanID:  binary.LittleEndian.Uint64(b[9:17]),
	}
}
