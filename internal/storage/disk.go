// Package storage implements the server-side storage manager: a simulated
// disk of slotted pages grouped into segments, a persistent object table
// (POT) mapping logical OIDs to physical addresses via linear hashing, and
// object allocation with clustering hints.
//
// This plays the role EXODUS v1.3 played for GOM (paper §6.1.1): it resolves
// OIDs to (page, slot) and serves pages. The swizzling layers above are, by
// design (§2), independent of how it is implemented.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/page"
)

// Errors returned by the storage layer.
var (
	ErrNoSegment    = errors.New("storage: no such segment")
	ErrSegmentExist = errors.New("storage: segment already exists")
	ErrNoPage       = errors.New("storage: no such page")
	ErrNoObject     = errors.New("storage: no such object")
	ErrObjectExists = errors.New("storage: object already exists")
)

// Disk is a simulated disk: page images addressable by PageID, grouped into
// segments. It is safe for concurrent use (it sits on the server side and
// serves multiple clients).
//
// Reads are lock-free and copy-free. Every page slot holds an atomically
// published *immutable* state — the page image and, beside it, the extent
// directory of the page's slots (pageState): WritePage allocates a fresh
// image and atomic-stores it (copy-on-write), so a reader does one atomic
// load and hands out the reference — no lock, no copy, and any reference
// obtained earlier keeps observing the bytes it was published with. The price is
// one page-sized allocation per write instead of one per read, the right
// trade for a page *server* (reads dominate, and the borrowed image goes
// straight onto the wire; see DESIGN.md "Zero-copy read path").
//
// Borrow contract: the slice returned by ReadPage/ReadRun is shared and
// MUST NOT be mutated or grown by the caller; it stays valid (and frozen)
// indefinitely. Under `go test` the contract is enforced by seal mode
// (SetSealReads): reads hand out defensive copies so an accidental mutation
// is harmless in tests that don't opt out, while the -race-visible tests
// that do opt out (torn-read property, zero-alloc guards) exercise true
// sharing.
type Disk struct {
	// createMu serializes segment creation (a copy-on-write update of the
	// segment table); it is never taken on a read or write of page bytes.
	createMu sync.Mutex
	segs     atomic.Pointer[map[uint16]*diskSegment]
	obs      atomic.Pointer[metrics.Registry] // nil unless observability is installed
}

// diskSegment is one segment: an atomically published page directory whose
// slots are stable once created (AllocPage copy-appends the directory; the
// slots themselves are shared across directory versions, so a concurrent
// reader holding an older directory still observes later writes).
type diskSegment struct {
	// mu serializes directory growth (AllocPage); reads never take it.
	mu  sync.Mutex
	dir atomic.Pointer[[]*pageSlot]
}

// pageSlot holds the atomically published immutable state of one page.
type pageSlot struct {
	cur atomic.Pointer[pageState]
}

// pageState is one published state of a page: its image and the extent
// directory of its slots (page.Directory; maintained by the Manager, empty
// on a bare Disk). Both are immutable and published by one store, so a
// reader's single load is a consistent pair — the directory never names a
// slot that, in this image, holds another object.
type pageState struct {
	img []byte
	dir page.Directory
}

// sealReads selects the debug read mode: when set, ReadPage/ReadRun return
// defensive copies instead of borrowed references, so callers that violate
// the no-mutation contract corrupt only their copy. It defaults to on under
// `go test` and off in production binaries.
var sealReads atomic.Bool

func init() { sealReads.Store(testing.Testing()) }

// SealReads reports whether reads currently return sealed copies.
func SealReads() bool { return sealReads.Load() }

// SetSealReads toggles sealed reads and returns the previous setting.
// Tests that need the production borrow semantics (torn-read property,
// zero-alloc guards, the readpath benchmark) disable it and restore the
// previous value when done.
func SetSealReads(on bool) bool { return sealReads.Swap(on) }

// NewDisk returns an empty disk.
func NewDisk() *Disk {
	d := &Disk{}
	segs := make(map[uint16]*diskSegment)
	d.segs.Store(&segs)
	return d
}

// SetMetrics installs (or removes, with nil) the observability registry
// recording page-level I/O against this disk.
func (d *Disk) SetMetrics(r *metrics.Registry) { d.obs.Store(r) }

func (d *Disk) reg() *metrics.Registry { return d.obs.Load() }

// segment returns the named segment, or nil.
func (d *Disk) segment(seg uint16) *diskSegment {
	return (*d.segs.Load())[seg]
}

// CreateSegment creates an empty segment. The segment table is updated
// copy-on-write so concurrent readers never see it mid-change.
func (d *Disk) CreateSegment(seg uint16) error {
	d.createMu.Lock()
	defer d.createMu.Unlock()
	old := *d.segs.Load()
	if _, ok := old[seg]; ok {
		return fmt.Errorf("%w: %d", ErrSegmentExist, seg)
	}
	next := make(map[uint16]*diskSegment, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	s := &diskSegment{}
	dir := make([]*pageSlot, 0)
	s.dir.Store(&dir)
	next[seg] = s
	d.segs.Store(&next)
	return nil
}

// Segments returns the existing segment numbers, sorted.
func (d *Disk) Segments() []uint16 {
	segs := *d.segs.Load()
	out := make([]uint16, 0, len(segs))
	for s := range segs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumPages returns the number of pages in a segment.
func (d *Disk) NumPages(seg uint16) (int, error) {
	s := d.segment(seg)
	if s == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSegment, seg)
	}
	return len(*s.dir.Load()), nil
}

// AllocPage appends a freshly formatted page to the segment and returns its
// id. The directory is grown copy-on-write under the segment's mutex; the
// existing slots are shared with the new directory, so readers holding the
// old one stay coherent.
func (d *Disk) AllocPage(seg uint16) (page.PageID, error) {
	s := d.segment(seg)
	if s == nil {
		return page.NilPage, fmt.Errorf("%w: %d", ErrNoSegment, seg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.dir.Load()
	id := page.NewPageID(seg, uint64(len(old)))
	slot := &pageSlot{}
	slot.cur.Store(&pageState{img: page.New(id).CloneImage()})
	next := make([]*pageSlot, len(old)+1)
	copy(next, old)
	next[len(old)] = slot
	s.dir.Store(&next)
	d.reg().Inc(metrics.CtrDiskPageAlloc)
	return id, nil
}

// slot resolves a page id to its slot: two atomic loads, no locks.
func (d *Disk) slot(id page.PageID) (*pageSlot, error) {
	s := d.segment(id.Segment())
	if s == nil {
		return nil, fmt.Errorf("%w: segment %d", ErrNoSegment, id.Segment())
	}
	dir := *s.dir.Load()
	no := id.No()
	if no >= uint64(len(dir)) {
		return nil, fmt.Errorf("%w: %v", ErrNoPage, id)
	}
	return dir[no], nil
}

// ReadPage returns the page image. The returned slice is a borrowed
// reference to the immutable published image — the caller must not mutate
// it (see the Disk doc comment); it remains valid and frozen even across
// concurrent WritePage calls, which publish fresh images instead of
// touching this one. With sealed reads on (the `go test` default) a
// defensive copy is returned instead.
func (d *Disk) ReadPage(id page.PageID) ([]byte, error) {
	img, _, err := d.ReadPageDir(id)
	return img, err
}

// ReadPageDir is ReadPage plus the page's extent directory, both taken
// from one published state and both under the borrow contract.
func (d *Disk) ReadPageDir(id page.PageID) ([]byte, page.Directory, error) {
	if err := faultpoint.Check(faultpoint.DiskRead); err != nil {
		return nil, nil, err
	}
	slot, err := d.slot(id)
	if err != nil {
		return nil, nil, err
	}
	v := slot.cur.Load()
	r := d.reg()
	r.Inc(metrics.CtrDiskPageRead)
	r.AddN(metrics.CtrDiskReadBytes, page.Size)
	if sealReads.Load() {
		img, dir := v.sealed()
		return img, dir, nil
	}
	r.Inc(metrics.CtrPageZeroCopyHit)
	return v.img, v.dir, nil
}

// sealed returns defensive copies of the state (seal mode).
func (v *pageState) sealed() ([]byte, page.Directory) {
	img := make([]byte, page.Size)
	copy(img, v.img)
	return img, append(page.Directory(nil), v.dir...)
}

// size is the state's retained footprint in bytes.
func (v *pageState) size() int64 { return int64(len(v.img) + len(v.dir)) }

// state returns the page's current published state: one atomic load, no
// counters, no copy. The version store stages it as it is.
func (d *Disk) state(id page.PageID) (*pageState, error) {
	slot, err := d.slot(id)
	if err != nil {
		return nil, err
	}
	return slot.cur.Load(), nil
}

// ReadRun returns up to n contiguous pages starting at id, truncated at the
// end of the segment — the server-side half of a batched page fetch (one
// round trip ships a clustered run, cf. the sequential page runs clustering
// produces). Each image is resolved by one atomic load under the borrow
// contract of ReadPage; the run is atomic per page, not across pages — a
// transactional caller wanting cross-page consistency locks the run first
// (see txSession.ReadPages).
func (d *Disk) ReadRun(id page.PageID, n int) ([][]byte, error) {
	imgs, _, err := d.ReadRunDir(id, n)
	return imgs, err
}

// ReadRunDir is ReadRun plus each page's extent directory (see
// ReadPageDir).
func (d *Disk) ReadRunDir(id page.PageID, n int) ([][]byte, []page.Directory, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("storage: read run of %d pages", n)
	}
	s := d.segment(id.Segment())
	if s == nil {
		return nil, nil, fmt.Errorf("%w: segment %d", ErrNoSegment, id.Segment())
	}
	dir := *s.dir.Load()
	no := id.No()
	if no >= uint64(len(dir)) {
		return nil, nil, fmt.Errorf("%w: %v", ErrNoPage, id)
	}
	if rest := uint64(len(dir)) - no; uint64(n) > rest {
		n = int(rest)
	}
	sealed := sealReads.Load()
	out := make([][]byte, n)
	dirs := make([]page.Directory, n)
	for i := range out {
		v := dir[no+uint64(i)].cur.Load()
		out[i], dirs[i] = v.img, v.dir
		if sealed {
			out[i], dirs[i] = v.sealed()
		}
	}
	r := d.reg()
	r.AddN(metrics.CtrDiskPageRead, int64(n))
	r.AddN(metrics.CtrDiskReadBytes, int64(n)*page.Size)
	if !sealed {
		r.AddN(metrics.CtrPageZeroCopyHit, int64(n))
	}
	r.Inc(metrics.CtrReadRun)
	r.AddN(metrics.CtrReadRunPages, int64(n))
	return out, dirs, nil
}

// WritePage replaces the page image, copy-on-write: the bytes are copied
// into a fresh image which is atomically published, so references handed
// out by earlier reads keep observing the previous content. img itself is
// not retained. The page's directory is kept: a caller that changes which
// object owns a slot publishes the new directory with the image
// (writePageDir).
func (d *Disk) WritePage(id page.PageID, img []byte) error {
	return d.writePage(id, img, nil, false)
}

// writePageDir is WritePage publishing a new directory with the image.
func (d *Disk) writePageDir(id page.PageID, img []byte, dir page.Directory) error {
	return d.writePage(id, img, dir, true)
}

func (d *Disk) writePage(id page.PageID, img []byte, dir page.Directory, setDir bool) error {
	if err := faultpoint.Check(faultpoint.DiskWrite); err != nil {
		return err
	}
	if len(img) != page.Size {
		return fmt.Errorf("storage: image is %d bytes, want %d", len(img), page.Size)
	}
	slot, err := d.slot(id)
	if err != nil {
		return err
	}
	if !setDir {
		dir = slot.cur.Load().dir
	}
	fresh := make([]byte, page.Size)
	copy(fresh, img)
	slot.cur.Store(&pageState{img: fresh, dir: dir})
	d.reg().Inc(metrics.CtrDiskPageWrite)
	return nil
}

// setDirectory publishes a new directory with the page's current image
// (load and recovery, which rebuild directories from the POT).
func (d *Disk) setDirectory(id page.PageID, dir page.Directory) error {
	slot, err := d.slot(id)
	if err != nil {
		return err
	}
	slot.cur.Store(&pageState{img: slot.cur.Load().img, dir: dir})
	return nil
}

// TotalPages returns the page count over all segments.
func (d *Disk) TotalPages() int {
	n := 0
	for _, s := range *d.segs.Load() {
		n += len(*s.dir.Load())
	}
	return n
}

// Save serializes the disk to w. Format: magic, segment count, then per
// segment: number, page count, raw page images. Concurrent writers should
// be quiesced for a consistent image (Manager.Save holds its quiesce lock
// exclusively); each page is still read by one atomic load, so a racing
// writer can never produce a torn page in the output.
func (d *Disk) Save(w io.Writer) error {
	segMap := *d.segs.Load()
	hdr := make([]byte, 8)
	copy(hdr, "GOMDISK1")
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	segs := make([]uint16, 0, len(segMap))
	for s := range segMap {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	if err := binary.Write(w, binary.LittleEndian, uint32(len(segs))); err != nil {
		return err
	}
	for _, sno := range segs {
		dir := *segMap[sno].dir.Load()
		if err := binary.Write(w, binary.LittleEndian, sno); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(dir))); err != nil {
			return err
		}
		for _, slot := range dir {
			if _, err := w.Write(slot.cur.Load().img); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadDisk deserializes a disk written by Save.
func LoadDisk(r io.Reader) (*Disk, error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if string(hdr) != "GOMDISK1" {
		return nil, errors.New("storage: bad disk image magic")
	}
	var nseg uint32
	if err := binary.Read(r, binary.LittleEndian, &nseg); err != nil {
		return nil, err
	}
	d := NewDisk()
	segs := make(map[uint16]*diskSegment, nseg)
	for i := uint32(0); i < nseg; i++ {
		var seg uint16
		var npages uint64
		if err := binary.Read(r, binary.LittleEndian, &seg); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &npages); err != nil {
			return nil, err
		}
		dir := make([]*pageSlot, npages)
		for j := range dir {
			img := make([]byte, page.Size)
			if _, err := io.ReadFull(r, img); err != nil {
				return nil, err
			}
			slot := &pageSlot{}
			slot.cur.Store(&pageState{img: img})
			dir[j] = slot
		}
		s := &diskSegment{}
		s.dir.Store(&dir)
		segs[seg] = s
	}
	d.segs.Store(&segs)
	return d, nil
}
