// Package core implements the adaptable object manager of GOM (paper §4):
// a client-side run-time that manages main-memory resident persistent
// objects under any of the five reference-management strategies (NOS, EDS,
// EIS, LDS, LIS), adjustable per application, per type, and per context,
// with full support for replacing swizzled objects from the buffers.
//
// Architecture (paper §2, Fig. 1): the object manager sits on the client,
// above a page buffer pool and optionally an object cache (copy
// architecture), and below the application, which accesses objects only
// through references held in program variables (Var). Any I/O is implicit.
//
// Cost accounting: every operation charges the client's sim.Meter with the
// paper-calibrated costs, so experiments reproduce the paper's numbers
// deterministically; the same code paths run for real, so testing.B
// benches measure genuine work.
package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"gom/internal/buffer"
	"gom/internal/metrics"
	"gom/internal/objcache"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/rot"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// Errors returned by the object manager.
var (
	ErrNilRef     = errors.New("core: dereference of nil reference")
	ErrNoField    = errors.New("core: no such field")
	ErrWrongKind  = errors.New("core: field kind mismatch")
	ErrClosedVar  = errors.New("core: use of freed or stale variable")
	ErrNoCapacity = errors.New("core: buffers exhausted (pinned working set too large)")
)

// AccessRecorder receives one record per object-manager call, in the
// format the monitoring facility consumes (§7.1, Fig. 20a: OID,
// attribute, r/w). It is the §7 training hook, unrelated to the request
// spans of SetTrace.
type AccessRecorder interface {
	Record(id oid.OID, attr string, write bool)
}

// Options configures an object manager.
type Options struct {
	// Server is the page server (required).
	Server server.Server
	// Schema describes the object base's types (required).
	Schema *object.Schema
	// PageBufferPages is the page pool capacity in frames (default 1000,
	// the paper's §6.1.1 setting).
	PageBufferPages int
	// ObjectCache enables the copy architecture: objects are copied from
	// pages into a dedicated cache of ObjectCacheBytes (§6.6.2).
	ObjectCache      bool
	ObjectCacheBytes int
	// LazyUponDereference switches lazy swizzling to the upon-dereference
	// variant (§3.2.1); the default is upon-discovery, as in GOM.
	LazyUponDereference bool
	// RetainDescriptors disables reclaiming descriptors whose fan-in
	// counter reaches zero (§3.2.2 reclaims them) — an ablation toggle
	// that trades memory for avoided realloc churn.
	RetainDescriptors bool
	// PagewiseRRL replaces precise per-object reverse reference lists with
	// page-level reverse references (§5.3): less space, displacement pays
	// a scan. Requires the page-buffer architecture (no ObjectCache).
	PagewiseRRL bool
	// SwizzleTableSize, when non-zero, replaces RRLs with a bounded
	// swizzle table (McAuliffe/Solomon, §3.2.2): at most this many
	// references can be directly swizzled at once; further direct
	// swizzles are rejected and behave like no-swizzling, and evictions
	// inspect the whole table. Mutually exclusive with PagewiseRRL.
	SwizzleTableSize int
	// Metrics installs the always-on observability registry: real event
	// counts (faults, swizzles, displacements, buffer hits) recorded
	// alongside the simulated cost meter. Nil disables the hooks at the
	// cost of one nil check each — the paper-reproduction hot paths stay
	// allocation-free either way. The manager publishes its per-dereference
	// counts at faults and transaction boundaries, not per event
	// (OM.Metrics).
	Metrics *metrics.Registry
}

// OM is the adaptable object manager for one client application stream.
// One goroutine owns it, together with its ROT, buffer pool and meter: the
// paper's conflicting applications run in isolated buffers (§4.1.1), and
// non-conflicting ones share one OM sequentially. The only entries another
// goroutine may call are NoteInvalidated and NoteLeaseExpired, which queue
// under cohMu for the owner to apply (coherence.go; DESIGN.md "One owner
// goroutine").
type OM struct {
	srv    server.Server
	schema *object.Schema
	meter  *sim.Meter
	pc     *sim.HitCosts     // the meter's resident-dereference charges
	obs    *metrics.Registry // nil unless observability is installed
	pool   *buffer.Pool
	cache  *objcache.Cache // nil in the pure page-buffer architecture
	rot    *rot.Table
	spec   *swizzle.Spec

	// batcher is the server's batch-lookup capability, or nil; used by
	// eager scans to resolve a page's worth of references in one
	// round-trip instead of one per reference.
	batcher server.BatchLookuper
	// addrHints caches physical addresses resolved by batched lookups for
	// objects not yet resident; objectFault consumes them (falling back to
	// an authoritative Lookup if one proves stale). A hint is as good as
	// the moment it was taken: it is dropped when its page leaves the
	// buffer or is refreshed (eviction, invalidation — the page the next
	// fault reads may be newer than the hint) and at Commit and Discard
	// (another transaction may move the object once ours is over).
	addrHints map[oid.OID]storage.PAddr

	// descs is the descriptor table (§3.2.2) for the targets that are not
	// resident. A resident object carries its descriptor itself (Desc), so
	// the table costs nothing per cached object: displacement moves the
	// descriptor in, the next fault moves it out (findDescriptor, deref.go).
	descs map[oid.OID]*object.Descriptor
	// byPage tracks, in the page architecture, which resident objects were
	// materialized from each buffered page, so page eviction can displace
	// them.
	byPage map[page.PageID][]*object.MemObject
	// dirty lists the objects whose Dirty bit was set since the last
	// Commit, which drains it instead of searching the ROT. An entry goes
	// out of date when its object is displaced and written back first.
	// Appended by markDirty.
	dirty []*object.MemObject
	// live is the registry of live program variables (the "run-time
	// stack" the displacement logic must reach, §5.3; vars.go).
	live varList
	// varCtxs caches what NewVar resolves per (name, declared type) under
	// the active spec and registry, emptied when either changes.
	varCtxs varCtxTable
	// displacing guards displacement cascades against cycles.
	displacing map[oid.OID]bool
	// pagewise selects page-level reverse references (§5.3); pageRRL maps
	// a target page to the pages holding direct references into it.
	pagewise bool
	pageRRL  map[page.PageID]map[page.PageID]int
	// swizzleTableCap > 0 selects the bounded swizzle table (§3.2.2).
	swizzleTableCap int
	swizzleTable    []object.Slot

	// spans is the request tracer (nil disables); curCtx is the ambient
	// trace context of the operation currently executing, read by the
	// buffer pool and the RPC layer to parent their spans.
	spans  *trace.Tracer
	curCtx atomic.Pointer[trace.Context]
	// Scoreboard handles and the counts the manager has not yet published
	// to the registry (obs.go). scoreTab is indexed by type id, then field.
	scoreTab []typeScores
	scoreOf  map[*metrics.Score]*ctxScore
	scores   []*ctxScore
	pendCtr  [metrics.NumCounters]int64
	pendN    int

	recorder AccessRecorder
	// lazyUponDereference switches lazy swizzling from the default
	// upon-discovery behaviour to upon-dereference (§3.2.1) — implemented
	// for the ablation study; GOM and EXODUS use upon-discovery.
	lazyUponDereference bool
	// retainDescriptors keeps zero-fan-in descriptors alive (ablation).
	retainDescriptors bool
	// deferredErr accumulates failures raised inside buffer eviction
	// hooks, surfaced by the next API call.
	deferredErr error

	// Coherence state (coherence.go), the only state another goroutine
	// touches: pages queued by invalidation callbacks for application at
	// the next operation boundary, under cohMu. cohFlag mirrors "queue
	// non-empty" so idle hot paths pay one atomic load; cohAll marks a
	// lease expiry (drop everything cached). beginValidates says the
	// connection's snapshot begins name what changed; without it readEpoch,
	// the newest read point SetReadEpoch has seen, decides.
	cohMu          sync.Mutex
	cohPending     []page.PageID
	cohAll         bool
	cohFlag        atomic.Bool
	beginValidates bool
	readEpoch      uint64
}

// New constructs an object manager.
func New(opt Options) (*OM, error) {
	if opt.Server == nil || opt.Schema == nil {
		return nil, errors.New("core: Server and Schema are required")
	}
	pages := opt.PageBufferPages
	if pages == 0 {
		pages = 1000
	}
	meter := sim.NewMeter(sim.DefaultCosts())
	om := &OM{
		srv:        opt.Server,
		schema:     opt.Schema,
		meter:      meter,
		pc:         meter.Hit(),
		pool:       buffer.New(opt.Server, pages, meter),
		rot:        rot.New(),
		spec:       swizzle.NewSpec("default", swizzle.NOS),
		descs:      make(map[oid.OID]*object.Descriptor),
		byPage:     make(map[page.PageID][]*object.MemObject),
		displacing: make(map[oid.OID]bool),
		addrHints:  make(map[oid.OID]storage.PAddr),

		lazyUponDereference: opt.LazyUponDereference,
		retainDescriptors:   opt.RetainDescriptors,
	}
	om.batcher, _ = opt.Server.(server.BatchLookuper)
	om.pool.OnEvict(om.onPageEvict)
	if coh, ok := opt.Server.(coherenceWirer); ok && coh.HasCoherence() {
		// The server pushes invalidation callbacks on this connection, and
		// its snapshot begins say what changed since the last one: queue
		// both for application at operation boundaries, and treat lease
		// expiry as losing the whole cache.
		coh.OnInvalidate(om.NoteInvalidated)
		coh.OnLeaseExpired(om.NoteLeaseExpired)
		om.beginValidates = true
	}
	om.SetMetrics(opt.Metrics)
	if opt.ObjectCache {
		bytes := opt.ObjectCacheBytes
		if bytes == 0 {
			bytes = 4 << 20
		}
		om.cache = objcache.New(bytes, meter)
		om.cache.OnEvict(om.onCacheEvict)
	}
	if opt.PagewiseRRL {
		if opt.ObjectCache {
			return nil, errors.New("core: PagewiseRRL requires the page-buffer architecture")
		}
		if opt.SwizzleTableSize > 0 {
			return nil, errors.New("core: PagewiseRRL and SwizzleTableSize are mutually exclusive")
		}
		om.pagewise = true
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	om.swizzleTableCap = opt.SwizzleTableSize
	return om, nil
}

// Meter returns the client's cost meter.
func (om *OM) Meter() *sim.Meter { return om.meter }

// Metrics returns the installed observability registry, or nil, having
// published what the manager counted since its last boundary (obs.go):
// read through here, on the manager's goroutine, the registry is exact at
// any point of an application; read directly it may lag by up to
// publishEvery events until the next fault or transaction boundary.
func (om *OM) Metrics() *metrics.Registry {
	om.publish()
	return om.obs
}

// SetMetrics installs (or removes, with nil) the observability registry on
// the object manager and its page buffer pool.
func (om *OM) SetMetrics(r *metrics.Registry) {
	om.publish() // what was counted so far belongs to the old registry
	om.obs = r
	om.pool.SetMetrics(r)
	om.buildScoreTab()
	om.labelScoreStrategies()
	om.varCtxs = varCtxTable{}
}

// Schema returns the schema.
func (om *OM) Schema() *object.Schema { return om.schema }

// Spec returns the active swizzling specification.
func (om *OM) Spec() *swizzle.Spec { return om.spec }

// Pool exposes the page buffer pool (benchmarks inspect it).
func (om *OM) Pool() *buffer.Pool { return om.pool }

// SetReadEpoch tells the object manager that its reads are from now on at
// read point e: sessions running snapshot transactions call it with each
// new snapshot's read-LSN, so that nothing cached under an older snapshot
// — buffered page or resident object — is served as the newer one's state.
//
// On a coherent connection there is nothing left to do: the snapshot begin
// that gave out e has already handed the pages changed since the previous
// read point to NoteInvalidated (or, unable to name them, called
// NoteLeaseExpired), and everything else cached is current at e. Without
// coherence nothing can say what changed, so a newer read point queues the
// whole cache for invalidation at the next operation boundary.
func (om *OM) SetReadEpoch(e uint64) {
	if om.beginValidates {
		return
	}
	om.cohMu.Lock()
	if e > om.readEpoch {
		om.readEpoch = e
		om.cohAll = true
		om.cohFlag.Store(true)
	}
	om.cohMu.Unlock()
}

// Cache exposes the object cache, or nil in the page architecture.
func (om *OM) Cache() *objcache.Cache { return om.cache }

// Resident returns the number of ROT-registered objects.
func (om *OM) Resident() int { return om.rot.Len() }

// SetAccessRecorder installs (or removes, with nil) the monitoring hook.
func (om *OM) SetAccessRecorder(r AccessRecorder) {
	om.recorder = r
}

func (om *OM) recordAccess(id oid.OID, attr string, write bool) {
	if om.recorder != nil {
		om.recorder.Record(id, attr, write)
	}
}

// BeginApplication starts a new application with the given swizzling
// specification. Variables of the previous application become invalid. If
// the specification differs from the previous one, all cached objects are
// marked stale and their representation is fixed lazily on first access
// (§4.1.2) — pages and objects stay buffered hot across commits.
func (om *OM) BeginApplication(spec *swizzle.Spec) {
	defer om.endOp(om.startOp(spanBegin))
	om.releaseVars()
	om.publish()
	if spec == nil {
		spec = swizzle.NewSpec("default", swizzle.NOS)
	}
	if spec.Equal(om.spec) {
		om.spec = spec // resolves identically: nothing cached needs touching
		return
	}
	om.rot.Range(func(obj *object.MemObject) bool {
		obj.Stale = true
		if obj.Desc != nil {
			obj.Desc.Stale = true
		}
		return true
	})
	om.spec = spec
	om.labelScoreStrategies()
	om.varCtxs = varCtxTable{}
}

// markDirty sets the object's dirty bit and, on the clean→dirty
// transition, enlists the object for the next Commit.
func (om *OM) markDirty(obj *object.MemObject) {
	if obj.Dirty {
		return
	}
	obj.Dirty = true
	om.dirty = append(om.dirty, obj)
}

// Commit ends the current application: the objects written since the last
// commit are written back into their pages, the pages dirtied thereby are
// shipped to the server, and every buffered page and cached object remains
// resident for subsequent applications (§4.1.2). It costs what the
// application wrote, not what is cached: the object manager and the pool
// both list what is dirty. If a write-back fails, what has not been
// shipped stays listed and a second Commit ships it.
func (om *OM) Commit() error {
	defer om.endOp(om.startOp(spanCommit))
	om.releaseVars()
	om.publish()
	var relocated []*object.MemObject
	for i, obj := range om.dirty {
		if !obj.Dirty || om.rot.Lookup(obj.OID) != obj {
			continue // displaced and written back since it was enlisted
		}
		moved, err := om.writeBack(obj)
		if err != nil {
			om.dirty = om.dirty[i:]
			return err
		}
		if moved && om.cache == nil {
			relocated = append(relocated, obj)
		}
	}
	clear(om.dirty) // do not keep displaced objects reachable
	om.dirty = om.dirty[:0]
	clear(om.addrHints)
	// A relocated object's new page is not buffered; displace it so the
	// page-architecture invariant (resident ⇒ page buffered) holds — it
	// refaults from its new location on next access.
	for _, obj := range relocated {
		if err := om.displace(obj, false); err != nil {
			return err
		}
	}
	return om.pool.FlushAll()
}

// Reset cools the client completely: commits nothing, displaces every
// object, drops every page, and forgets every descriptor. Benchmarks use
// it to produce cold runs. It must not be called with live variables
// holding swizzled references (call Commit first, or accept that the
// variables are released).
func (om *OM) Reset() error {
	om.releaseVars()
	om.publish()
	if om.cache != nil {
		if err := om.cache.DropAll(); err != nil {
			return err
		}
	}
	if err := om.pool.DropAll(); err != nil {
		return err
	}
	// Page-architecture page drops displace their objects; anything left
	// (defensively) is displaced now.
	var err error
	om.rot.Range(func(obj *object.MemObject) bool {
		err = om.displace(obj, false)
		return err == nil
	})
	if err != nil {
		return err
	}
	om.dirty = nil // every object was written back on its way out
	om.descs = make(map[oid.OID]*object.Descriptor)
	om.byPage = make(map[page.PageID][]*object.MemObject)
	om.addrHints = make(map[oid.OID]storage.PAddr)
	if om.pagewise {
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	return nil
}

// Discard throws away every piece of client state — resident objects,
// buffered pages, cached objects, descriptors, variables — without
// writing anything back. This is the client half of a transaction abort
// (server.TxServer.Abort restores the durable state; the client's
// buffered images are then invalid and must not be flushed).
func (om *OM) Discard() {
	om.dropVars(false)
	om.publish()
	om.rot = rot.New()
	om.dirty = nil
	om.descs = make(map[oid.OID]*object.Descriptor)
	om.byPage = make(map[page.PageID][]*object.MemObject)
	om.displacing = make(map[oid.OID]bool)
	om.addrHints = make(map[oid.OID]storage.PAddr)
	om.swizzleTable = nil
	if om.pagewise {
		om.pageRRL = make(map[page.PageID]map[page.PageID]int)
	}
	om.deferredErr = nil
	om.cohMu.Lock()
	// Everything cached is being thrown away; pending invalidations have
	// nothing left to apply against.
	om.cohPending = nil
	om.cohAll = false
	om.cohFlag.Store(false)
	om.cohMu.Unlock()
	om.pool.Discard()
	if om.cache != nil {
		om.cache.Discard()
	}
}
