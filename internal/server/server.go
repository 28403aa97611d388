// Package server provides the page server of the client/server architecture
// (paper §2, Fig. 1). Clients fetch pages, resolve OIDs, and allocate
// objects through the Server interface.
//
// Two implementations are provided: Local wraps a storage.Manager in
// process (what the benchmarks use — deterministic, no network noise), and
// a TCP server/client pair speaking a length-prefixed binary protocol (the
// paper's architecture has the object manager talk to a remote server
// through "communication software"; §2 notes the swizzling techniques are
// independent of the server kind, which this interface enforces).
package server

import (
	"sync/atomic"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/storage"

	"gom/internal/page"
)

// Server is what the client-side object manager needs from the server. All
// implementations are safe for concurrent use by multiple clients.
type Server interface {
	// Lookup resolves a logical OID to its physical address by consulting
	// the server's persistent object table.
	Lookup(id oid.OID) (storage.PAddr, error)
	// ReadPage ships one page to the client: the page.Size bytes of its
	// image and, behind them, the page's directory when the server ships
	// one (the pipelined TCP client does; page.SplitImage takes the two
	// apart, and a caller that wants only the image takes the first
	// page.Size bytes).
	ReadPage(pid page.PageID) ([]byte, error)
	// WritePage installs a page image shipped back from a client.
	WritePage(pid page.PageID, img []byte) error
	// Allocate creates a new object in a segment.
	Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error)
	// AllocateNear creates a new object clustered with a neighbor.
	AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error)
	// UpdateObject rewrites an object server-side, relocating it if it no
	// longer fits its page (used for objects that grow past page room).
	UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error)
	// NumPages returns the number of pages in a segment.
	NumPages(seg uint16) (int, error)
}

// BatchLookuper is an optional Server extension: resolve many OIDs in one
// round trip (one opLookupBatch frame over TCP instead of N opLookup
// round-trips). The i-th address is valid only where ok[i] is true;
// unknown OIDs are reported per entry, not as a call error, so a batched
// eager-swizzling resolution can proceed with the hits. Callers must
// type-assert: plain Servers (and old remote servers that predate the
// batch opcodes) do not provide it.
type BatchLookuper interface {
	LookupBatch(ids []oid.OID) (addrs []storage.PAddr, ok []bool, err error)
}

// PageRunReader is an optional Server extension: ship up to n contiguous
// pages starting at pid in one round trip, truncated at the end of the
// segment (at least one page is returned, or an error). Each page is what
// ReadPage would return for it, directory included. A caller that wants a
// contiguous run in one round trip type-asserts for it.
type PageRunReader interface {
	ReadPages(pid page.PageID, n int) ([][]byte, error)
}

// dirPageReader is what the pipelined TCP path serves a connection from —
// Local, a 2PL session or a snapshot session — and how it reads their
// pages: each image together with the extent directory published with it
// (DESIGN.md "Page directories"), as separate borrowed pieces for the
// scatter-gather response. A snapshot session answers with the state at
// its read point, and leaves the directory out where the
// snapshot-consistency rule withholds it. The page reads are deliberately
// not part of Server: an in-process client gets bare images from ReadPage.
type dirPageReader interface {
	Server
	readPageDir(pid page.PageID) ([]byte, page.Directory, error)
	readPagesDir(pid page.PageID, n int) ([][]byte, []page.Directory, error)
}

// Local serves pages directly from a storage manager in the same process.
//
// Read results follow the storage layer's borrow contract: the image
// returned by ReadPage/ReadPages is a shared reference to the immutable
// published page (under `go test` seal mode, a defensive copy) and must
// not be mutated by the caller. Every in-tree consumer — the client
// buffer pool, the TCP response path — either copies into its
// own frame (page.FromImage) or ships the bytes without touching them.
type Local struct {
	mgr *storage.Manager
	// obs is atomic so the TCP server can share one cached Local across
	// connections and still install metrics while serving.
	obs atomic.Pointer[metrics.Registry]
}

// NewLocal returns an in-process server over the manager.
func NewLocal(mgr *storage.Manager) *Local { return &Local{mgr: mgr} }

// SetMetrics installs (or removes, with nil) the observability registry
// recording per-operation latency histograms, and wires the underlying
// disk's I/O counters to the same registry. Safe to call while serving.
// Returns the receiver for chaining.
func (l *Local) SetMetrics(r *metrics.Registry) *Local {
	l.obs.Store(r)
	l.mgr.Disk().SetMetrics(r)
	return l
}

// reg returns the installed registry, or nil.
func (l *Local) reg() *metrics.Registry { return l.obs.Load() }

// Manager exposes the underlying storage manager (generation code uses it).
func (l *Local) Manager() *storage.Manager { return l.mgr }

// Lookup implements Server.
func (l *Local) Lookup(id oid.OID) (storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerLookup); err != nil {
		return storage.PAddr{}, err
	}
	defer l.reg().RPCSince(metrics.RPCLookup, l.reg().Now())
	return l.mgr.Lookup(id)
}

// ReadPage implements Server.
func (l *Local) ReadPage(pid page.PageID) ([]byte, error) {
	img, _, err := l.readPageDir(pid)
	return img, err
}

func (l *Local) readPageDir(pid page.PageID) ([]byte, page.Directory, error) {
	if err := faultpoint.Check(faultpoint.ServerReadPage); err != nil {
		return nil, nil, err
	}
	defer l.reg().RPCSince(metrics.RPCReadPage, l.reg().Now())
	return l.mgr.Disk().ReadPageDir(pid)
}

// WritePage implements Server.
func (l *Local) WritePage(pid page.PageID, img []byte) error {
	if err := faultpoint.Check(faultpoint.ServerWritePage); err != nil {
		return err
	}
	defer l.reg().RPCSince(metrics.RPCWritePage, l.reg().Now())
	return l.mgr.Disk().WritePage(pid, img)
}

// Allocate implements Server.
func (l *Local) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerAllocate); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	defer l.reg().RPCSince(metrics.RPCAllocate, l.reg().Now())
	return l.mgr.Allocate(seg, rec)
}

// AllocateNear implements Server.
func (l *Local) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerAllocateNear); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	defer l.reg().RPCSince(metrics.RPCAllocateNear, l.reg().Now())
	return l.mgr.AllocateNear(seg, neighbor, rec)
}

// UpdateObject implements Server.
func (l *Local) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerUpdateObject); err != nil {
		return storage.PAddr{}, err
	}
	defer l.reg().RPCSince(metrics.RPCUpdateObject, l.reg().Now())
	return l.mgr.Update(id, rec)
}

// NumPages implements Server.
func (l *Local) NumPages(seg uint16) (int, error) {
	if err := faultpoint.Check(faultpoint.ServerNumPages); err != nil {
		return 0, err
	}
	defer l.reg().RPCSince(metrics.RPCNumPages, l.reg().Now())
	return l.mgr.Disk().NumPages(seg)
}

// LookupBatch implements BatchLookuper.
func (l *Local) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	if err := faultpoint.Check(faultpoint.ServerLookupBatch); err != nil {
		return nil, nil, err
	}
	defer l.reg().RPCSince(metrics.RPCLookupBatch, l.reg().Now())
	l.reg().Inc(metrics.CtrBatchLookup)
	l.reg().AddN(metrics.CtrBatchLookupOIDs, int64(len(ids)))
	addrs, ok := l.mgr.LookupBatch(ids)
	return addrs, ok, nil
}

// ReadPages implements PageRunReader.
func (l *Local) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	imgs, _, err := l.readPagesDir(pid, n)
	return imgs, err
}

func (l *Local) readPagesDir(pid page.PageID, n int) ([][]byte, []page.Directory, error) {
	if err := faultpoint.Check(faultpoint.ServerReadPages); err != nil {
		return nil, nil, err
	}
	defer l.reg().RPCSince(metrics.RPCReadPages, l.reg().Now())
	return l.mgr.Disk().ReadRunDir(pid, n)
}

var (
	_ BatchLookuper = (*Local)(nil)
	_ PageRunReader = (*Local)(nil)
	_ dirPageReader = (*Local)(nil)
)
