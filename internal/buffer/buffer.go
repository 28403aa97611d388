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
// A pool belongs to one object manager and, like it, to one goroutine (the
// paper's conflicting applications run in isolated buffers, §4.1.1): one
// map of frames, one CLOCK ring and one dirty list, and no lock. A miss is
// one ReadPage; a fault that needs room evicts first.
package buffer

import (
	"errors"
	"fmt"
	"sort"

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
	// (empty when it shipped none); replaced, with Page, only through
	// dirIndex.setDir (pagedir.go).
	dir page.Directory

	pool  *Pool
	pid   page.PageID
	pins  int32
	dirty bool
	// ref is the CLOCK reference bit: set on every hit, cleared (second
	// chance) by the sweep. Frames are installed with the bit clear, which
	// reproduces LRU order for the no-rehit case.
	ref bool
	// evicting is set while the eviction hook and the write-back run: the
	// frame stays visible to Peek (the hook needs it) but cannot be pinned.
	evicting bool
	// seq is the installation order (recency tiebreak); slot is the frame's
	// position in the CLOCK ring.
	seq  uint64
	slot int
}

// PageID returns the id of the page the frame holds.
func (f *Frame) PageID() page.PageID { return f.pid }

// Dirty reports whether the frame has been marked dirty.
func (f *Frame) Dirty() bool { return f.dirty }

// MarkDirty marks the frame to be written back on eviction or flush. The
// clean→dirty transition puts the frame on its pool's dirty list, which is
// all FlushAll looks at.
func (f *Frame) MarkDirty() {
	if f.dirty {
		return
	}
	f.dirty = true
	f.pool.dirtyFrames = append(f.pool.dirtyFrames, f)
}

// Pinned reports whether the frame is pinned.
func (f *Frame) Pinned() bool { return f.pins > 0 }

// EvictFn is called with a victim frame before it is written back and
// dropped. The hook may mutate the page image and mark the frame dirty.
type EvictFn func(pid page.PageID, f *Frame)

// Pool is a page buffer pool. One pool belongs to one client application
// and is used from one goroutine (see the package comment).
type Pool struct {
	srv      server.Server
	meter    *sim.Meter
	obs      *metrics.Registry // nil unless observability is installed
	capacity int
	onEvict  EvictFn

	// spans/spanCtx: request tracing (see SetTrace in trace.go).
	spans   *trace.Tracer
	spanCtx func() trace.Context

	frames map[page.PageID]*Frame

	// The replacement state: the ring of frames, the sweep hand, the
	// free-slot list, and the installation sequence.
	ring    []*Frame
	hand    int
	free    []int
	nextSeq uint64

	// dirtyFrames are the frames marked dirty since the last FlushAll. An
	// entry goes out of date when something else ships the frame first
	// (eviction, Flush, Refresh), and a frame dirtied again after that is
	// listed twice; the dirty bit decides at flush time.
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
	return &Pool{
		srv:      srv,
		meter:    meter,
		capacity: capacity,
		frames:   make(map[page.PageID]*Frame),
	}
}

// OnEvict installs the eviction hook.
func (p *Pool) OnEvict(fn EvictFn) { p.onEvict = fn }

// SetMetrics installs (or removes, with nil) the observability registry
// recording buffer hits, misses, and evictions.
func (p *Pool) SetMetrics(r *metrics.Registry) { p.obs = r }

// Len returns the number of buffered pages.
func (p *Pool) Len() int { return len(p.frames) }

// Contains reports whether the page is buffered, without touching
// replacement state.
func (p *Pool) Contains(pid page.PageID) bool { return p.frames[pid] != nil }

// Peek returns the frame without touching replacement state, or nil. A
// frame mid-eviction is still returned: the eviction hook relies on that to
// write displaced objects into the outgoing image.
func (p *Pool) Peek(pid page.PageID) *Frame { return p.frames[pid] }

// Get returns the frame holding the page, faulting it from the server if
// necessary and setting the frame's reference bit.
func (p *Pool) Get(pid page.PageID) (*Frame, error) {
	if f := p.frames[pid]; f != nil {
		p.obs.Inc(metrics.CtrBufferHit)
		f.ref = true
		return f, nil
	}
	return p.fault(pid)
}

// fault performs a page fault: make room (evicting if needed), read the
// image from the server and install it.
func (p *Pool) fault(pid page.PageID) (*Frame, error) {
	if sp := p.spans.StartChild(spanPageFault, p.traceCtx()); sp.Sampled() {
		sp.SetArgs(uint64(pid), 0)
		defer sp.Finish()
	}
	p.obs.Inc(metrics.CtrBufferMiss)
	if err := p.makeRoom(); err != nil {
		return nil, err
	}
	img, err := p.srv.ReadPage(pid)
	if err != nil {
		return nil, err
	}
	p.obs.Inc(metrics.CtrPageFault)
	p.meter.Event(sim.CntPageFault, p.meter.Costs().PageIO)
	p.meter.Add(sim.CntPageRead, 1)
	p.meter.Add(sim.CntServerRoundTrip, 1)
	pg, dir, err := splitRead(img)
	if err != nil {
		return nil, err
	}
	return p.install(pid, pg, dir), nil
}

// makeRoom evicts victims until one more frame fits.
func (p *Pool) makeRoom() error {
	for len(p.frames) >= p.capacity {
		f := p.victim()
		if f == nil {
			return ErrNoFrames
		}
		if err := p.evictFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// install files a new frame and the directory its image arrived with.
func (p *Pool) install(pid page.PageID, pg *page.Page, dir page.Directory) *Frame {
	f := &Frame{Page: pg, pool: p, pid: pid, seq: p.nextSeq}
	p.nextSeq++
	if n := len(p.free); n > 0 {
		f.slot = p.free[n-1]
		p.free = p.free[:n-1]
		p.ring[f.slot] = f
	} else {
		f.slot = len(p.ring)
		p.ring = append(p.ring, f)
	}
	p.frames[pid] = f
	p.dirs.setDir(f, dir)
	return f
}

// victim selects the next replacement victim by a CLOCK second-chance
// sweep over the ring. Returns nil if every frame is pinned.
func (p *Pool) victim() *Frame {
	n := len(p.ring)
	if n == 0 {
		return nil
	}
	for i := 0; i < 2*n; i++ {
		f := p.ring[p.hand%n]
		p.hand = (p.hand + 1) % n
		if f == nil || f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false // second chance
			continue
		}
		return f
	}
	return nil
}

// Evict removes one page from the pool, firing the eviction hook and
// writing the page back if dirty. Pinned pages cannot be evicted.
func (p *Pool) Evict(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
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
	f := p.frames[pid]
	if f == nil || f.dirty {
		return true, nil
	}
	err = p.evictFrame(f)
	if errors.Is(err, errEvictPinned) {
		return false, nil
	}
	return err == nil, err
}

// evictFrame evicts one frame: hook, write-back if dirty, removal. A frame
// that is pinned is reported via errEvictPinned, one already gone with nil.
func (p *Pool) evictFrame(f *Frame) error {
	if p.frames[f.pid] != f {
		return nil // already evicted
	}
	if f.pins > 0 {
		return fmt.Errorf("buffer: %w %v", errEvictPinned, f.pid)
	}
	f.evicting = true
	if p.onEvict != nil {
		p.onEvict(f.pid, f)
	}
	if f.dirty {
		if err := p.writeBack(f.pid, f); err != nil {
			f.evicting = false // the frame stays in the pool
			return err
		}
	}
	p.dirs.setDir(f, nil)
	p.ring[f.slot] = nil
	p.free = append(p.free, f.slot)
	delete(p.frames, f.pid)
	p.meter.Add(sim.CntPageEvict, 1)
	p.obs.Inc(metrics.CtrBufferEvict)
	return nil
}

func (p *Pool) writeBack(pid page.PageID, f *Frame) error {
	if err := faultpoint.Check(faultpoint.BufferWriteBack); err != nil {
		return err
	}
	if err := p.srv.WritePage(pid, f.Page.Image()); err != nil {
		return err
	}
	f.dirty = false
	p.meter.Event(sim.CntPageWrite, p.meter.Costs().PageIO)
	p.meter.Add(sim.CntServerRoundTrip, 1)
	return nil
}

// Pin pins a buffered page against eviction.
func (p *Pool) Pin(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil || f.evicting {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	f.pins++
	return nil
}

// Unpin releases one pin.
func (p *Pool) Unpin(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: unpin of unpinned page %v", pid)
	}
	f.pins--
	return nil
}

// MarkDirty marks a buffered page dirty.
func (p *Pool) MarkDirty(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	f.MarkDirty()
	return nil
}

// Flush writes one page back to the server if dirty, keeping it buffered.
func (p *Pool) Flush(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	if !f.dirty {
		return nil
	}
	return p.writeBack(pid, f)
}

// Refresh replaces a buffered page's image with the server's current
// version. A dirty frame is flushed first so no local modification is
// lost. Used after a server-side object relocation invalidated the
// buffered copy.
func (p *Pool) Refresh(pid page.PageID) error {
	f := p.frames[pid]
	if f == nil {
		return fmt.Errorf("%w: %v", ErrNotHeld, pid)
	}
	if f.dirty {
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
	f.Page = pg
	p.dirs.setDir(f, dir)
	p.meter.Add(sim.CntPageRead, 1)
	p.meter.Add(sim.CntServerRoundTrip, 1)
	p.meter.Charge(p.meter.Costs().PageIO)
	return nil
}

// allFrames snapshots the installed frames, oldest first.
func (p *Pool) allFrames() []*Frame {
	out := make([]*Frame, 0, len(p.frames))
	for _, f := range p.frames {
		out = append(out, f)
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
	batch := p.takeDirty()
	if len(batch) == 0 {
		return nil
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	for i, f := range batch {
		if !f.dirty {
			continue // shipped since it was listed, or listed twice
		}
		if err := p.writeBack(f.pid, f); err != nil {
			p.dirtyFrames = append(p.dirtyFrames, batch[i:]...)
			return err
		}
	}
	return nil
}

// takeDirty detaches the dirty list and hands it to the caller.
func (p *Pool) takeDirty() []*Frame {
	batch := p.dirtyFrames
	p.dirtyFrames = nil
	return batch
}

// UnlistedDirty returns the buffered pages whose frame has the dirty bit
// but is missing from the dirty list, which FlushAll would therefore not
// ship: none, unless a write path bypassed MarkDirty. It is the full scan
// FlushAll used to make, kept as a check for core.OM.Verify and tests.
func (p *Pool) UnlistedDirty() []page.PageID {
	listed := make(map[*Frame]struct{}, len(p.dirtyFrames))
	for _, f := range p.dirtyFrames {
		listed[f] = struct{}{}
	}
	var out []page.PageID
	for _, f := range p.allFrames() {
		if _, ok := listed[f]; f.dirty && !ok {
			out = append(out, f.pid)
		}
	}
	return out
}

// DropAll evicts every page (hook + write-back included), oldest first.
// Used to cool the buffer between benchmark runs. Fails if any page is
// pinned.
func (p *Pool) DropAll() error {
	for _, f := range p.allFrames() {
		if err := p.evictFrame(f); err != nil {
			return err
		}
	}
	p.takeDirty() // every frame was shipped on its way out
	return nil
}

// Discard drops every frame without firing hooks or writing anything back
// — the client-side step of a transaction abort, whose buffered images
// are invalid by definition.
func (p *Pool) Discard() {
	p.frames = make(map[page.PageID]*Frame)
	p.ring = nil
	p.free = nil
	p.hand = 0
	p.dirs.reset()
	p.takeDirty()
}

// Pages returns the ids of all buffered pages, approximately most recently
// used first: frames whose reference bit is set (touched since the last
// sweep) before cold ones, newest installation first within each class.
func (p *Pool) Pages() []page.PageID {
	fs := p.allFrames()
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].ref != fs[j].ref {
			return fs[i].ref
		}
		return fs[i].seq > fs[j].seq
	})
	out := make([]page.PageID, len(fs))
	for i, f := range fs {
		out[i] = f.pid
	}
	return out
}
