// Package monitor implements the paper's §7: determining the most
// profitable swizzling strategy in practice. An application is executed in
// training mode (under no-swizzling) while a trace of object-manager calls
// is recorded; the trace is combined with sampling of the object base to
// build a swizzling graph (Fig. 20) whose cumulative weights instantiate
// the cost model's session variables; Equations (1)–(3) then pick the
// strategy and adjustment granularity, and the greedy algorithm of §7.2
// reconsiders eager-direct choices that would cause additional I/O.
package monitor

import (
	"gom/internal/oid"
)

// Record is one trace record (Fig. 20a): the OID of the accessed object,
// the attribute (empty for whole-object accesses), and whether the access
// was a read or a write.
type Record struct {
	ID    oid.OID
	Attr  string
	Write bool
}

// Trace accumulates records; it implements the object manager's
// core.AccessRecorder hook (OM.SetAccessRecorder) structurally.
type Trace struct {
	Records []Record
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Record appends one record.
func (t *Trace) Record(id oid.OID, attr string, write bool) {
	t.Records = append(t.Records, Record{ID: id, Attr: attr, Write: write})
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Reset clears the trace.
func (t *Trace) Reset() { t.Records = t.Records[:0] }
