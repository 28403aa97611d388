// Package buffer implements the client-side page buffer pool (paper §2,
// Fig. 1, CLIENT 1). Pages are faulted from the server on demand, held in a
// bounded set of frames, replaced by a CLOCK (second-chance) sweep, and
// written back when dirty.
//
// The pool itself knows nothing about swizzling: before a victim frame is
// dropped, an eviction hook fires so the object manager can write modified
// objects back into the page image and unswizzle or invalidate references
// into the page (the "precautions" of §3.2.2).
//
// Concurrency: the pool is safe for concurrent use by many goroutines.
// Presence lookups go through 64 frame shards (per-shard RWMutex), pin
// counts and dirty/reference bits are atomic, and replacement is a CLOCK
// ring under its own mutex — Get on a buffered page never takes a global
// lock. Concurrent faults of the same page are coalesced: one goroutine
// becomes the fault leader and issues the ReadPage RPC, the rest wait on
// the in-flight call and retry the (now hitting) lookup. Evictions are
// serialized by an eviction mutex so the hook — which reaches back into the
// object manager — never runs twice for one frame. Page *content* is not
// guarded here: the object layer owns image bytes and serializes its own
// structural operations.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/trace"
)

// Errors returned by the pool.
var (
	ErrNoFrames = errors.New("buffer: all frames pinned")
	ErrNotHeld  = errors.New("buffer: page not in pool")

	errEvictPinned = errors.New("evicting pinned page")
)

// Frame is a buffered page.
type Frame struct {
	Page *page.Page

	// dir is the directory the server shipped with the image in Page
	// (empty when it shipped none); guarded by the pool's dirs.mu and
	// replaced, with Page, only through dirIndex.setDir (pagedir.go).
	dir page.Directory

	pool  *Pool
	pid   page.PageID
	pins  atomic.Int32
	dirty atomic.Bool
	// ref is the CLOCK reference bit: set on every hit, cleared (second
	// chance) by the sweep. Frames are installed with the bit clear, which
	// reproduces LRU order for the no-rehit case.
	ref atomic.Uint32
	// evicting and gone are guarded by the owning shard's mutex: while a
	// frame is being evicted it stays visible to Peek (the eviction hook
	// needs it) but Get waits on gone and retries.
	evicting bool
	gone     chan struct{}
	// seq is the installation order (recency tiebreak); slot is the frame's
	// position in the CLOCK ring. Both guarded by clockMu.
	seq  uint64
	slot int
}

// PageID returns the id of the page the frame holds.
func (f *Frame) PageID() page.PageID { return f.pid }

// Dirty reports whether the frame has been marked dirty.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// MarkDirty marks the frame to be written back on eviction or flush. The
// clean→dirty transition puts the frame on its pool's dirty list, which is
// all FlushAll looks at.
func (f *Frame) MarkDirty() {
	if f.dirty.Load() || !f.dirty.CompareAndSwap(false, true) {
		return
	}
	f.pool.dirtyMu.Lock()
	f.pool.dirtyFrames = append(f.pool.dirtyFrames, f)
	f.pool.dirtyMu.Unlock()
}

// Pinned reports whether the frame is pinned.
func (f *Frame) Pinned() bool { return f.pins.Load() > 0 }

// EvictFn is called with a victim frame before it is written back and
// dropped. The hook may mutate the page image and mark the frame dirty.
type EvictFn func(pid page.PageID, f *Frame)

// frameShards is the number of presence-map shards. Power of two.
const frameShards = 64

type frameShard struct {
	mu sync.RWMutex
	m  map[page.PageID]*Frame
	_  [40]byte
}

// faultCall is one in-flight page fault; followers wait on done and then
// either propagate err or retry their lookup.
type faultCall struct {
	done chan struct{}
	err  error
}

// Pool is a page buffer pool, safe for concurrent use (see the package
// comment for the locking design). One pool belongs to one client
// application (the paper's conflicting applications run in isolated
// buffers, §4.1.1).
type Pool struct {
	srv      server.Server
	meter    *sim.Meter
	obs      *metrics.Registry // nil unless observability is installed
	capacity int
	onEvict  EvictFn

	// spans/spanCtx: request tracing (see SetTrace in trace.go).
	spans   *trace.Tracer
	spanCtx func() trace.Context

	shards [frameShards]frameShard
	count  atomic.Int64 // installed frames

	// clockMu guards the replacement state: the ring of frames, the sweep
	// hand, the free-slot list, and the installation sequence.
	clockMu sync.Mutex
	ring    []*Frame
	hand    int
	free    []int
	nextSeq uint64

	// resMu guards reserved: capacity claimed by in-flight faults whose
	// frames are not installed yet, so concurrent faults cannot
	// collectively overshoot the pool size.
	resMu    sync.Mutex
	reserved int

	// evictMu serializes victim selection, the eviction hook, and
	// write-back, so each frame's hook fires exactly once.
	evictMu sync.Mutex

	// faultMu guards the per-page singleflight table.
	faultMu  sync.Mutex
	inflight map[page.PageID]*faultCall

	// dirtyMu (a leaf lock) guards dirtyFrames: the frames marked dirty
	// since the last FlushAll. An entry goes out of date when something else
	// ships the frame first (eviction, Flush, Refresh), and a frame dirtied
	// again after that is listed twice; the dirty bit decides at flush time.
	dirtyMu     sync.Mutex
	dirtyFrames []*Frame

	// dirs indexes the directories of the buffered frames (pagedir.go).
	dirs dirIndex
}

// New returns a pool of the given capacity (in frames) served by srv,
// charging faults against the meter.
func New(srv server.Server, capacity int, meter *sim.Meter) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: capacity %d", capacity))
	}
	p := &Pool{
		srv:      srv,
		meter:    meter,
		capacity: capacity,
		inflight: make(map[page.PageID]*faultCall),
	}
	for i := range p.shards {
		p.shards[i].m = make(map[page.PageID]*Frame)
	}
	return p
}

func (p *Pool) shard(pid page.PageID) *frameShard {
	return &p.shards[uint64(pid)&(frameShards-1)]
}

// OnEvict installs the eviction hook.
func (p *Pool) OnEvict(fn EvictFn) { p.onEvict = fn }

// SetMetrics installs (or removes, with nil) the observability registry
// recording buffer hits, misses, and evictions.
func (p *Pool) SetMetrics(r *metrics.Registry) { p.obs = r }

// Len returns the number of buffered pages.
func (p *Pool) Len() int { return int(p.count.Load()) }

// Contains reports whether the page is buffered, without touching
// replacement state.
func (p *Pool) Contains(pid page.PageID) bool { return p.Peek(pid) != nil }

// Peek returns the frame without touching replacement state, or nil. A
// frame mid-eviction is still returned: the eviction hook relies on that to
// write displaced objects into the outgoing image.
func (p *Pool) Peek(pid page.PageID) *Frame {
	sh := p.shard(pid)
	sh.mu.RLock()
	f := sh.m[pid]
	sh.mu.RUnlock()
	return f
}

// Get returns the frame holding the page, faulting it from the server if
// necessary and setting the frame's reference bit.
func (p *Pool) Get(pid page.PageID) (*Frame, error) {
	for {
		sh := p.shard(pid)
		sh.mu.RLock()
		f := sh.m[pid]
		var gone chan struct{}
		if f != nil && f.evicting {
			gone = f.gone
		}
		sh.mu.RUnlock()
		if f == nil {
			f, err, retry := p.fault(pid)
			if retry {
				continue
			}
			return f, err
		}
		if gone != nil {
			// The frame is on its way out; wait for the eviction to finish
			// (or fail) and look again.
			<-gone
			continue
		}
		p.obs.Inc(metrics.CtrBufferHit)
		f.ref.Store(1)
		return f, nil
	}
}

// fault coalesces concurrent faults of one page: the first goroutine
// becomes the leader and issues the read; followers wait and retry the
// lookup (retry=true) or propagate the leader's error.
func (p *Pool) fault(pid page.PageID) (f *Frame, err error, retry bool) {
	p.faultMu.Lock()
	if c, ok := p.inflight[pid]; ok {
		p.faultMu.Unlock()
		p.obs.Inc(metrics.CtrFaultCoalesced)
		<-c.done
		if c.err != nil {
			return nil, c.err, false
		}
		return nil, nil, true
	}
	c := &faultCall{done: make(chan struct{})}
	p.inflight[pid] = c
	p.faultMu.Unlock()

	f, err = p.faultLeader(pid)
	c.err = err

	p.faultMu.Lock()
	delete(p.inflight, pid)
	p.faultMu.Unlock()
	close(c.done)
	if err != nil {
		return nil, err, false
	}
	if f == nil {
		// Another leader installed the page between our miss and our
		// leadership; go find it as a hit.
		return nil, nil, true
	}
	return f, nil, false
}

// faultLeader performs the actual page fault: reserve a frame (evicting if
// needed), read the image from the server and install it.
func (p *Pool) faultLeader(pid page.PageID) (*Frame, error) {
	if sp := p.spans.StartChild(spanPageFault, p.traceCtx()); sp.Sampled() {
		sp.SetArgs(uint64(pid), 0)
		defer sp.Finish()
	}
	if p.Peek(pid) != nil {
		// A goroutine that missed the page can become leader only after an
		// earlier leader installed it and left the in-flight table: the page
		// is buffered now, and reading it again would install a second frame.
		return nil, nil
	}
	p.obs.Inc(metrics.CtrBufferMiss)
	if err := p.reserve(); err != nil {
		return nil, err
	}
	img, err := p.srv.ReadPage(pid)
	if err != nil {
		p.unreserve()
		return nil, err
	}
	h := int(pid)
	p.obs.Inc(metrics.CtrPageFault)
	p.meter.SharedEvent(h, sim.CntPageFault, p.meter.Costs().PageIO)
	p.meter.SharedAdd(h, sim.CntPageRead, 1)
	p.meter.SharedAdd(h, sim.CntServerRoundTrip, 1)
	pg, dir, err := splitRead(img)
	if err != nil {
		p.unreserve()
		return nil, err
	}
	return p.install(pid, pg, dir), nil
}

// reserve claims one frame of capacity, evicting victims until it fits.
func (p *Pool) reserve() error {
	p.resMu.Lock()
	for int(p.count.Load())+p.reserved >= p.capacity {
		p.resMu.Unlock()
		if err := p.evictOne(); err != nil {
			return err
		}
		p.resMu.Lock()
	}
	p.reserved++
	p.resMu.Unlock()
	return nil
}

func (p *Pool) unreserve() {
	p.resMu.Lock()
	p.reserved--
	p.resMu.Unlock()
}

// install publishes a new frame, consuming one reservation, and files the
// directory its image arrived with.
func (p *Pool) install(pid page.PageID, pg *page.Page, dir page.Directory) *Frame {
	f := &Frame{Page: pg, pool: p, pid: pid, gone: make(chan struct{})}
	p.clockMu.Lock()
	f.seq = p.nextSeq
	p.nextSeq++
	if n := len(p.free); n > 0 {
		f.slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.ring[f.slot] = f
	} else {
		f.slot = len(p.ring)
		p.ring = append(p.ring, f)
	}
	p.clockMu.Unlock()
	sh := p.shard(pid)
	sh.mu.Lock()
	sh.m[pid] = f
	sh.mu.Unlock()
	p.dirs.setDir(f, dir)
	p.count.Add(1)
	p.unreserve()
	return f
}

// evictOne evicts one victim frame to make room, retrying if a victim gets
// pinned between selection and eviction.
func (p *Pool) evictOne() error {
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	for {
		// Someone may have freed capacity while we waited for evictMu.
		p.resMu.Lock()
		roomy := int(p.count.Load())+p.reserved < p.capacity
		p.resMu.Unlock()
		if roomy {
			return nil
		}
		f := p.victim()
		if f == nil {
			return ErrNoFrames
		}
		err := p.evictFrame(f)
		if errors.Is(err, errEvictPinned) {
			continue
		}
		return err
	}
}

// victim selects the next replacement victim by a CLOCK second-chance
// sweep over the ring. Returns nil if every frame is pinned. Caller holds
// evictMu.
func (p *Pool) victim() *Frame {
	p.clockMu.Lock()
	defer p.clockMu.Unlock()
	n := len(p.ring)
	if n == 0 {
		return nil
	}
	for i := 0; i < 2*n; i++ {
		f := p.ring[p.hand%n]
		p.hand = (p.hand + 1) % n
		if f == nil || f.pins.Load() > 0 {
			continue
		}
		if f.ref.Swap(0) == 1 {
			continue // second chance
		}
		return f
	}
	return nil
}

// Evict removes one page from the pool, firing the eviction hook and
// writing the page back if dirty. Pinned pages cannot be evicted.
func (p *Pool) Evict(pid page.PageID) error {
	f := p.Peek(pid)
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	return p.evictFrame(f)
}

// Invalidate drops the client-side copy of a remotely rewritten page: a
// resident clean frame is evicted through the eviction hook so the object
// manager displaces the objects swizzled out of the stale image. It reports
// whether the page is fully invalidated:
//
//   - A locally dirty frame is left alone (done=true): the client's own
//     writes take precedence locally.
//   - A pinned frame cannot be dropped under the Pin contract
//     (done=false): the caller must retry once the pins drain — the
//     coherence machinery keeps such pages queued and re-applies at its
//     next opportunity.
func (p *Pool) Invalidate(pid page.PageID) (done bool, err error) {
	f := p.Peek(pid)
	if f == nil {
		return true, nil
	}
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	if f.dirty.Load() {
		return true, nil
	}
	err = p.evictFrame(f)
	if errors.Is(err, errEvictPinned) {
		return false, nil
	}
	return err == nil, err
}

// evictFrame evicts one frame: hook, write-back if dirty, removal. Caller
// holds evictMu. A frame that is pinned (or already gone) when we get the
// shard lock is reported via errEvictPinned / nil so callers can retry or
// ignore.
func (p *Pool) evictFrame(f *Frame) error {
	sh := p.shard(f.pid)
	sh.mu.Lock()
	if sh.m[f.pid] != f {
		sh.mu.Unlock()
		return nil // already evicted
	}
	if f.pins.Load() > 0 {
		sh.mu.Unlock()
		return fmt.Errorf("buffer: %w %v", errEvictPinned, f.pid)
	}
	f.evicting = true
	sh.mu.Unlock()

	if p.onEvict != nil {
		p.onEvict(f.pid, f)
	}
	if f.dirty.Load() {
		if err := p.writeBack(f.pid, f); err != nil {
			// The frame stays in the pool; wake waiters so they re-find it.
			sh.mu.Lock()
			f.evicting = false
			old := f.gone
			f.gone = make(chan struct{})
			sh.mu.Unlock()
			close(old)
			return err
		}
	}
	p.dirs.setDir(f, nil)
	p.clockMu.Lock()
	p.ring[f.slot] = nil
	p.free = append(p.free, f.slot)
	p.clockMu.Unlock()
	sh.mu.Lock()
	delete(sh.m, f.pid)
	sh.mu.Unlock()
	p.count.Add(-1)
	p.meter.SharedAdd(int(f.pid), sim.CntPageEvict, 1)
	p.obs.Inc(metrics.CtrBufferEvict)
	close(f.gone)
	return nil
}

func (p *Pool) writeBack(pid page.PageID, f *Frame) error {
	if err := faultpoint.Check(faultpoint.BufferWriteBack); err != nil {
		return err
	}
	if err := p.srv.WritePage(pid, f.Page.Image()); err != nil {
		return err
	}
	f.dirty.Store(false)
	h := int(pid)
	p.meter.SharedEvent(h, sim.CntPageWrite, p.meter.Costs().PageIO)
	p.meter.SharedAdd(h, sim.CntServerRoundTrip, 1)
	return nil
}

// Pin pins a buffered page against eviction.
func (p *Pool) Pin(pid page.PageID) error {
	sh := p.shard(pid)
	sh.mu.RLock()
	f := sh.m[pid]
	ok := f != nil && !f.evicting
	if ok {
		f.pins.Add(1)
	}
	sh.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	return nil
}

// Unpin releases one pin.
func (p *Pool) Unpin(pid page.PageID) error {
	f := p.Peek(pid)
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	for {
		n := f.pins.Load()
		if n == 0 {
			return fmt.Errorf("buffer: unpin of unpinned page %v", pid)
		}
		if f.pins.CompareAndSwap(n, n-1) {
			return nil
		}
	}
}

// MarkDirty marks a buffered page dirty.
func (p *Pool) MarkDirty(pid page.PageID) error {
	f := p.Peek(pid)
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	f.MarkDirty()
	return nil
}

// Flush writes one page back to the server if dirty, keeping it buffered.
func (p *Pool) Flush(pid page.PageID) error {
	f := p.Peek(pid)
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	if !f.dirty.Load() {
		return nil
	}
	return p.writeBack(pid, f)
}

// Refresh replaces a buffered page's image with the server's current
// version. A dirty frame is flushed first so no local modification is
// lost. Used after a server-side object relocation invalidated the
// buffered copy.
func (p *Pool) Refresh(pid page.PageID) error {
	f := p.Peek(pid)
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	if f.dirty.Load() {
		if err := p.writeBack(pid, f); err != nil {
			return err
		}
	}
	img, err := p.srv.ReadPage(pid)
	if err != nil {
		return err
	}
	pg, dir, err := splitRead(img)
	if err != nil {
		return err
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	f.Page = pg
	sh.mu.Unlock()
	p.dirs.setDir(f, dir)
	h := int(pid)
	p.meter.SharedAdd(h, sim.CntPageRead, 1)
	p.meter.SharedAdd(h, sim.CntServerRoundTrip, 1)
	p.meter.SharedCharge(h, p.meter.Costs().PageIO)
	return nil
}

// allFrames snapshots the installed frames, oldest first.
func (p *Pool) allFrames() []*Frame {
	out := make([]*Frame, 0, p.Len())
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for _, f := range sh.m {
			out = append(out, f)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// FlushAll writes every dirty page back to the server, keeping all pages
// buffered (commit leaves pages hot, §4.1.2). It visits the dirty list
// only, so a commit costs what was written, not what is buffered. Pages
// are written in installation order so the server-side write sequence is
// deterministic. If a write fails, the frames not yet shipped go back on
// the list and the next FlushAll ships them.
func (p *Pool) FlushAll() error {
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	batch := p.takeDirty()
	if len(batch) == 0 {
		return nil
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	for i, f := range batch {
		if !f.dirty.Load() {
			continue // shipped since it was listed, or listed twice
		}
		if err := p.writeBack(f.pid, f); err != nil {
			p.dirtyMu.Lock()
			p.dirtyFrames = append(p.dirtyFrames, batch[i:]...)
			p.dirtyMu.Unlock()
			return err
		}
	}
	return nil
}

// takeDirty detaches the dirty list and hands it to the caller, so
// MarkDirty can keep appending while the caller works through it.
func (p *Pool) takeDirty() []*Frame {
	p.dirtyMu.Lock()
	defer p.dirtyMu.Unlock()
	batch := p.dirtyFrames
	p.dirtyFrames = nil
	return batch
}

// UnlistedDirty returns the buffered pages whose frame has the dirty bit
// but is missing from the dirty list, which FlushAll would therefore not
// ship: none, unless a write path bypassed MarkDirty. It is the full scan
// FlushAll used to make, kept as a check for core.OM.Verify and tests.
func (p *Pool) UnlistedDirty() []page.PageID {
	p.dirtyMu.Lock()
	listed := make(map[*Frame]struct{}, len(p.dirtyFrames))
	for _, f := range p.dirtyFrames {
		listed[f] = struct{}{}
	}
	p.dirtyMu.Unlock()
	var out []page.PageID
	for _, f := range p.allFrames() {
		if _, ok := listed[f]; f.dirty.Load() && !ok {
			out = append(out, f.pid)
		}
	}
	return out
}

// DropAll evicts every page (hook + write-back included), oldest first.
// Used to cool the buffer between benchmark runs. Fails if any page is
// pinned.
func (p *Pool) DropAll() error {
	p.evictMu.Lock()
	for _, f := range p.allFrames() {
		if err := p.evictFrame(f); err != nil {
			p.evictMu.Unlock()
			return err
		}
	}
	p.evictMu.Unlock()
	p.takeDirty() // every frame was shipped on its way out
	return nil
}

// Discard drops every frame without firing hooks or writing anything back
// — the client-side step of a transaction abort, whose buffered images
// are invalid by definition. Not safe to call concurrently with faults.
func (p *Pool) Discard() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.m = make(map[page.PageID]*Frame)
		sh.mu.Unlock()
	}
	p.count.Store(0)
	p.clockMu.Lock()
	p.ring = nil
	p.free = nil
	p.hand = 0
	p.clockMu.Unlock()
	p.dirs.reset()
	p.takeDirty()
}

// Pages returns the ids of all buffered pages, approximately most recently
// used first: frames whose reference bit is set (touched since the last
// sweep) before cold ones, newest installation first within each class.
func (p *Pool) Pages() []page.PageID {
	fs := p.allFrames()
	sort.SliceStable(fs, func(i, j int) bool {
		ri, rj := fs[i].ref.Load(), fs[j].ref.Load()
		if ri != rj {
			return ri > rj
		}
		return fs[i].seq > fs[j].seq
	})
	out := make([]page.PageID, len(fs))
	for i, f := range fs {
		out[i] = f.pid
	}
	return out
}
