package main

import (
	"io"
	"time"

	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/trace"
)

// The traced run's ruler. Everything here lives in the benchmark: spans
// are recorded around the public calls into each layer, never inside the
// program. A recorder belongs to one client and is only touched by that
// client's goroutine, so it needs no locks.

// rpcKind groups the wire operations the per-layer budget names.
type rpcKind uint8

const (
	rpcLookup rpcKind = iota
	rpcReadPage
	rpcWritePage
	rpcTxBegin
	rpcTxCommit
	rpcOther
	numRPCKinds
)

var (
	rpcKindNames = [numRPCKinds]string{"lookup", "read_page", "write_page", "tx_begin", "tx_commit", "other"}
	rpcSpanNames = [numRPCKinds]string{"rpc.lookup", "rpc.read_page", "rpc.write_page", "rpc.tx_begin", "rpc.tx_commit", "rpc.other"}
)

// maxSpans bounds the spans one client keeps for the Chrome export; the
// aggregates below are exact regardless.
const maxSpans = 1 << 17

type recorder struct {
	client  int
	enabled bool
	tracer  *trace.Tracer // the program's client-side span ring

	// spans are trace.Records, the program's own span format, so one
	// exporter writes both: a transaction phase (Parent = the operation's
	// root span) or an RPC (Parent = the phase it ran in). TraceID is the
	// operation id, which the spans of one operation share; A is the
	// client number.
	spans  []trace.Record
	nextID uint64
	op     uint64 // current operation id
	parent uint64 // current phase span id (parent of RPC spans)
	// ambient is the trace context handed to the TCP client for RPCs the
	// driver issues itself (transaction boundaries), so the program's
	// rpc:*/server:*/commit:* spans nest under the driver's phase span.
	ambient trace.Context

	rpcCount [numRPCKinds]int64
	rpcNS    [numRPCKinds]int64
}

func newRecorder(client int) *recorder { return &recorder{client: client} }

func (r *recorder) id() uint64 {
	r.nextID++
	// Client number in the top byte keeps ids unique across clients.
	return uint64(r.client+1)<<56 | r.nextID
}

func (r *recorder) add(name string, start, end time.Time, id, parent uint64) {
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, trace.Record{
			TraceID: r.op, SpanID: id, Parent: parent, Name: name,
			Start: start.UnixNano(), Dur: end.Sub(start).Nanoseconds(), A: uint64(r.client),
		})
	}
}

// rpc times one wire call and files it under the current phase.
func (r *recorder) rpc(k rpcKind, start time.Time) {
	end := time.Now()
	d := end.Sub(start).Nanoseconds()
	r.rpcCount[k]++
	r.rpcNS[k] += d
	r.add(rpcSpanNames[k], start, end, r.id(), r.parent)
}

// rpcRecorder is the benchmark-owned decorator around *server.Client that
// core.OM talks through. It forwards every optional capability core and
// buffer type-assert for (see the compile-time assertions in
// record_test.go: a missing OnInvalidate would silently switch coherence
// off). With the recorder disabled it adds one branch per call.
type rpcRecorder struct {
	inner *server.Client
	rec   *recorder
}

// start and done bracket one forwarded call: `defer s.done(kind, s.start())`.
func (s *rpcRecorder) start() time.Time {
	if !s.rec.enabled {
		return time.Time{}
	}
	return time.Now()
}

func (s *rpcRecorder) done(k rpcKind, start time.Time) {
	if !start.IsZero() {
		s.rec.rpc(k, start)
	}
}

func (s *rpcRecorder) Lookup(id oid.OID) (storage.PAddr, error) {
	defer s.done(rpcLookup, s.start())
	return s.inner.Lookup(id)
}

func (s *rpcRecorder) ReadPage(pid page.PageID) ([]byte, error) {
	defer s.done(rpcReadPage, s.start())
	return s.inner.ReadPage(pid)
}

func (s *rpcRecorder) WritePage(pid page.PageID, img []byte) error {
	defer s.done(rpcWritePage, s.start())
	return s.inner.WritePage(pid, img)
}

func (s *rpcRecorder) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.Allocate(seg, rec)
}

func (s *rpcRecorder) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.AllocateNear(seg, neighbor, rec)
}

func (s *rpcRecorder) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.UpdateObject(id, rec)
}

func (s *rpcRecorder) NumPages(seg uint16) (int, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.NumPages(seg)
}

func (s *rpcRecorder) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.LookupBatch(ids)
}

func (s *rpcRecorder) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	defer s.done(rpcOther, s.start())
	return s.inner.ReadPages(pid, n)
}

// Transaction boundaries: the driver calls these, not core.OM.

func (s *rpcRecorder) BeginTx() error {
	defer s.done(rpcTxBegin, s.start())
	_, err := s.inner.BeginTx()
	return err
}

func (s *rpcRecorder) BeginSnapshotTx() (readLSN uint64, err error) {
	defer s.done(rpcTxBegin, s.start())
	_, readLSN, err = s.inner.BeginSnapshotTx()
	return readLSN, err
}

func (s *rpcRecorder) CommitTx() error {
	defer s.done(rpcTxCommit, s.start())
	return s.inner.CommitTx()
}

func (s *rpcRecorder) AbortTx() error {
	defer s.done(rpcOther, s.start())
	return s.inner.AbortTx()
}

// Coherence wiring: core.New installs its invalidation handlers through
// these.

func (s *rpcRecorder) HasCoherence() bool { return s.inner.HasCoherence() }

func (s *rpcRecorder) OnInvalidate(fn func(epoch uint64, pids []page.PageID)) {
	s.inner.OnInvalidate(fn)
}

func (s *rpcRecorder) OnLeaseExpired(fn func()) { s.inner.OnLeaseExpired(fn) }

// SetTrace is what core.OM.SetTrace forwards the program's tracer
// through. RPCs issued inside an object-manager operation parent under
// that operation's span as usual; RPCs the driver issues between them
// (transaction boundaries) parent under the driver's ambient phase span.
func (s *rpcRecorder) SetTrace(t *trace.Tracer, src func() trace.Context) {
	rec := s.rec
	s.inner.SetTrace(t, func() trace.Context {
		if c := src(); c.Traced() {
			return c
		}
		return rec.ambient
	})
}

// writeChrome writes the benchmark's spans and the program's own span
// rings as one Chrome trace_event file.
func writeChrome(w io.Writer, st *stack) error {
	var srcs []trace.Source
	for i, c := range st.clients {
		name := string(rune('A' + i))
		srcs = append(srcs,
			trace.Source{Name: "driver client " + name, Records: c.rec.spans},
			trace.Source{Name: "program client " + name, Records: c.rec.tracer.Records()})
	}
	srcs = append(srcs, trace.Source{Name: "program server", Records: st.tracer.Records()})
	return trace.WriteChrome(w, srcs...)
}
