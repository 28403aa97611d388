package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"gom/internal/oid"
	"gom/internal/page"
)

// Manager is the server-side storage manager. It owns the disk, the
// persistent object table, and object allocation. Placement supports the
// clustering policies the paper evaluates in §6.6.3: callers either let the
// manager append to a segment's current fill page (type-based clustering is
// then achieved by giving each type its own segment) or pass a neighbor
// object so the new object is co-located on the neighbor's page
// (Part-to-Connection clustering).
//
// Locking is sharded so concurrent server connections actually run in
// parallel: the POT shards its own buckets, the disk has its own lock, and
// allocation/update/delete serialize per segment (placement mutates the
// segment's fill page and the pages it probes, never pages of another
// segment — except for a cross-segment clustering hint, which takes both
// segment locks in segment order). A whole-manager operation (Save) takes
// the quiesce lock exclusively; every data operation holds it shared.
type Manager struct {
	quiesce sync.RWMutex

	disk *Disk
	pot  *POT
	gen  *oid.Generator
	wal  *WAL // nil unless durability is attached

	// versions retains page/POT before-images for snapshot (MVCC) reads.
	versions *VersionStore

	// segMu guards the allocator table; each segment allocator then has
	// its own lock.
	segMu  sync.Mutex
	allocs map[uint16]*segAlloc
}

// segAlloc is one segment's allocation state.
type segAlloc struct {
	mu   sync.Mutex
	fill page.PageID // current allocation target, NilPage when none
}

// NewManager returns a manager allocating OIDs on the given volume over a
// fresh disk.
func NewManager(volume uint16) *Manager {
	m := &Manager{
		disk:   NewDisk(),
		pot:    NewPOT(),
		gen:    oid.NewGenerator(volume),
		allocs: make(map[uint16]*segAlloc),
	}
	m.versions = newVersionStore(m.disk, m.pot)
	return m
}

// Disk exposes the underlying disk (the page server serves from it).
func (m *Manager) Disk() *Disk { return m.disk }

// POT exposes the persistent object table.
func (m *Manager) POT() *POT { return m.pot }

// AttachWAL makes the manager durable: segment creations are logged as
// system records, and the transaction layer above logs everything else
// (see server.TxServer). Recovery attaches the WAL itself; only fresh
// managers need this call.
//
// Attaching also wires the WAL's commit hook to the MVCC version store:
// the moment a commit batch is durable — inside the flush, before any
// committer wakes and releases page locks — the batch's staged
// before-images are published, so a snapshot never observes half a batch
// and a later writer re-dirtying a page always finds the previous
// before-image already published. Wiring it here (not in NewTxServer)
// means publication accompanies every durable commit regardless of
// whether the WAL was attached before or after the transaction server
// was built. Failed or poisoned batches never reach the hook.
func (m *Manager) AttachWAL(w *WAL) {
	m.wal = w
	if w != nil {
		vs := m.versions
		w.SetCommitHook(func(txs []uint64) { vs.Publish(txs) })
	}
}

// WAL returns the attached write-ahead log, nil when the manager is not
// durable.
func (m *Manager) WAL() *WAL { return m.wal }

// Versions returns the MVCC page-version store backing snapshot reads.
func (m *Manager) Versions() *VersionStore { return m.versions }

// SnapshotReadPageDir serves a page and its directory as of the snapshot
// read point readLSN, without taking any page lock; withheld reports a
// directory left out (see VersionStore.ReadPageDir).
func (m *Manager) SnapshotReadPageDir(readLSN uint64, pid page.PageID) (img []byte, dir page.Directory, withheld bool, err error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	return m.versions.ReadPageDir(readLSN, pid)
}

// SnapshotLookup resolves an OID as of the snapshot read point readLSN:
// the version-store overlay first, the live POT otherwise.
func (m *Manager) SnapshotLookup(readLSN uint64, id oid.OID) (PAddr, error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	if addr, ok, hit := m.versions.Lookup(readLSN, id); hit {
		if !ok {
			return PAddr{}, fmt.Errorf("%w: %v", ErrNoObject, id)
		}
		return addr, nil
	}
	addr, ok := m.pot.Get(id)
	if !ok {
		return PAddr{}, fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	return addr, nil
}

// CreateSegment creates an empty segment.
func (m *Manager) CreateSegment(seg uint16) error {
	if err := m.disk.CreateSegment(seg); err != nil {
		return err
	}
	if m.wal != nil {
		return m.wal.AppendSegCreate(seg)
	}
	return nil
}

// alloc returns the segment's allocator, creating it on first use.
func (m *Manager) alloc(seg uint16) *segAlloc {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	sa := m.allocs[seg]
	if sa == nil {
		sa = &segAlloc{fill: page.NilPage}
		m.allocs[seg] = sa
	}
	return sa
}

// lockSegs locks the allocators of one or two segments in ascending
// segment order (deadlock-free) and returns the target segment's allocator
// plus an unlock function.
func (m *Manager) lockSegs(seg uint16, hintSeg uint16, hasHint bool) (*segAlloc, func()) {
	sa := m.alloc(seg)
	if !hasHint || hintSeg == seg {
		sa.mu.Lock()
		return sa, sa.mu.Unlock
	}
	other := m.alloc(hintSeg)
	first, second := sa, other
	if hintSeg < seg {
		first, second = other, sa
	}
	first.mu.Lock()
	second.mu.Lock()
	return sa, func() {
		second.mu.Unlock()
		first.mu.Unlock()
	}
}

// Allocate stores a new object in the segment and returns its OID and
// physical address. The record is placed on the segment's current fill page
// if it has room, otherwise on a fresh page.
func (m *Manager) Allocate(seg uint16, rec []byte) (oid.OID, PAddr, error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	sa, unlock := m.lockSegs(seg, 0, false)
	defer unlock()
	id := m.gen.Next()
	addr, err := m.place(sa, seg, page.NilPage, id, rec)
	if err != nil {
		return oid.Nil, PAddr{}, err
	}
	m.pot.Put(id, addr)
	return id, addr, nil
}

// AllocateNear stores a new object, trying first to place it on the same
// page as the neighbor object (clustering hint). It falls back to normal
// placement when the neighbor's page is full or the neighbor is unknown.
func (m *Manager) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, PAddr, error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	hint := page.NilPage
	if naddr, ok := m.pot.Get(neighbor); ok {
		hint = naddr.Page
	}
	sa, unlock := m.lockSegs(seg, hint.Segment(), hint != page.NilPage)
	defer unlock()
	id := m.gen.Next()
	addr, err := m.place(sa, seg, hint, id, rec)
	if err != nil {
		return oid.Nil, PAddr{}, err
	}
	m.pot.Put(id, addr)
	return id, addr, nil
}

// place stores id's record rec in the segment, honoring the page hint when
// given. The caller holds the segment's allocation lock (and the hint
// segment's, if different).
func (m *Manager) place(sa *segAlloc, seg uint16, hint page.PageID, id oid.OID, rec []byte) (PAddr, error) {
	if hint != page.NilPage {
		if addr, ok := m.tryInsert(hint, id, rec); ok {
			return addr, nil
		}
	}
	if sa.fill != page.NilPage {
		if addr, ok := m.tryInsert(sa.fill, id, rec); ok {
			return addr, nil
		}
	}
	pid, err := m.disk.AllocPage(seg)
	if err != nil {
		return PAddr{}, err
	}
	sa.fill = pid
	addr, ok := m.tryInsert(pid, id, rec)
	if !ok {
		return PAddr{}, fmt.Errorf("storage: record of %d bytes does not fit a fresh page", len(rec))
	}
	return addr, nil
}

// tryInsert attempts to insert id's record into the given page, filing the
// slot it got in the page's directory; it reports success.
func (m *Manager) tryInsert(pid page.PageID, id oid.OID, rec []byte) (PAddr, bool) {
	img, dir, err := m.disk.ReadPageDir(pid)
	if err != nil {
		return PAddr{}, false
	}
	p, err := page.FromImage(img)
	if err != nil {
		return PAddr{}, false
	}
	slot, err := p.Insert(rec)
	if err != nil {
		return PAddr{}, false
	}
	if err := m.disk.writePageDir(pid, p.Image(), dir.With(id, slot)); err != nil {
		return PAddr{}, false
	}
	return PAddr{Page: pid, Slot: uint16(slot)}, true
}

// Lookup resolves an OID to its physical address.
func (m *Manager) Lookup(id oid.OID) (PAddr, error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	addr, ok := m.pot.Get(id)
	if !ok {
		return PAddr{}, fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	return addr, nil
}

// LookupBatch resolves many OIDs in one call. The i-th result is valid
// only where ok[i] is true; unknown OIDs are not an error (the caller —
// typically a batched swizzling resolution — decides per entry).
func (m *Manager) LookupBatch(ids []oid.OID) ([]PAddr, []bool) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	addrs := make([]PAddr, len(ids))
	ok := make([]bool, len(ids))
	for i, id := range ids {
		addrs[i], ok[i] = m.pot.Get(id)
	}
	return addrs, ok
}

// Read returns a copy of an object's persistent record and its address.
// The record is sliced straight out of the borrowed page image (no page
// copy); only the record bytes themselves are copied for the caller.
func (m *Manager) Read(id oid.OID) ([]byte, PAddr, error) {
	addr, err := m.Lookup(id)
	if err != nil {
		return nil, PAddr{}, err
	}
	img, err := m.disk.ReadPage(addr.Page)
	if err != nil {
		return nil, PAddr{}, err
	}
	rec, err := page.ReadRecordInImage(img, int(addr.Slot))
	if err != nil {
		return nil, PAddr{}, fmt.Errorf("storage: object %v at %v/%d: %w", id, addr.Page, addr.Slot, err)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, addr, nil
}

// Update replaces an object's persistent record. If the new record no
// longer fits its page, the object is relocated to another page of the same
// segment and the POT is updated (this is what logical OIDs buy: the move is
// invisible to references, paper §3.3). Relocation never crosses segments,
// so the object's segment lock serializes all updates of its page.
func (m *Manager) Update(id oid.OID, rec []byte) (PAddr, error) {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	addr, ok := m.pot.Get(id)
	if !ok {
		return PAddr{}, fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	sa, unlock := m.lockSegs(addr.Page.Segment(), 0, false)
	defer unlock()
	// Re-resolve under the segment lock: a concurrent update may have
	// relocated the object (within the segment) between the lookup above
	// and the lock acquisition.
	if addr, ok = m.pot.Get(id); !ok {
		return PAddr{}, fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	img, dir, err := m.disk.ReadPageDir(addr.Page)
	if err != nil {
		return PAddr{}, err
	}
	p, err := page.FromImage(img)
	if err != nil {
		return PAddr{}, err
	}
	if err := p.Update(int(addr.Slot), rec); err == nil {
		if err := m.disk.WritePage(addr.Page, p.Image()); err != nil {
			return PAddr{}, err
		}
		return addr, nil
	}
	// Relocate: delete from the old page, place elsewhere in the segment.
	if err := p.Delete(int(addr.Slot)); err != nil {
		return PAddr{}, err
	}
	if err := m.disk.writePageDir(addr.Page, p.Image(), dir.Without(id)); err != nil {
		return PAddr{}, err
	}
	naddr, err := m.place(sa, addr.Page.Segment(), page.NilPage, id, rec)
	if err != nil {
		return PAddr{}, err
	}
	m.pot.Put(id, naddr)
	return naddr, nil
}

// Save serializes the manager — disk, persistent object table, and OID
// generator state — so an object base survives process restarts.
// Format: the disk image (see Disk.Save), then "GOMMGR01", the generator
// volume and next serial, the POT entry count, and the entries.
func (m *Manager) Save(w io.Writer) error {
	m.quiesce.Lock()
	defer m.quiesce.Unlock()
	if err := m.disk.Save(w); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	copy(hdr, "GOMMGR01")
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, m.gen.Volume()); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, m.gen.Peek()); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(m.pot.Len())); err != nil {
		return err
	}
	var err error
	m.pot.Range(func(id oid.OID, addr PAddr) bool {
		if werr := binary.Write(w, binary.LittleEndian, uint64(id)); werr != nil {
			err = werr
			return false
		}
		if werr := binary.Write(w, binary.LittleEndian, uint64(addr.Page)); werr != nil {
			err = werr
			return false
		}
		if werr := binary.Write(w, binary.LittleEndian, addr.Slot); werr != nil {
			err = werr
			return false
		}
		return true
	})
	return err
}

// LoadManager deserializes a manager written by Save.
func LoadManager(r io.Reader) (*Manager, error) {
	disk, err := LoadDisk(r)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if string(hdr) != "GOMMGR01" {
		return nil, errors.New("storage: bad manager image magic")
	}
	var volume uint16
	var nextSerial, n uint64
	if err := binary.Read(r, binary.LittleEndian, &volume); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &nextSerial); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	m := &Manager{
		disk:   disk,
		pot:    NewPOT(),
		gen:    oid.NewGeneratorAt(volume, nextSerial),
		allocs: make(map[uint16]*segAlloc),
	}
	m.versions = newVersionStore(m.disk, m.pot)
	for i := uint64(0); i < n; i++ {
		var id, pid uint64
		var slot uint16
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &pid); err != nil {
			return nil, err
		}
		if err := binary.Read(r, binary.LittleEndian, &slot); err != nil {
			return nil, err
		}
		m.pot.Put(oid.OID(id), PAddr{Page: page.PageID(pid), Slot: slot})
	}
	if err := m.rebuildDirectories(); err != nil {
		return nil, err
	}
	return m, nil
}

// Delete removes an object from its page and from the POT.
func (m *Manager) Delete(id oid.OID) error {
	m.quiesce.RLock()
	defer m.quiesce.RUnlock()
	addr, ok := m.pot.Get(id)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	_, unlock := m.lockSegs(addr.Page.Segment(), 0, false)
	defer unlock()
	if addr, ok = m.pot.Get(id); !ok {
		return fmt.Errorf("%w: %v", ErrNoObject, id)
	}
	img, dir, err := m.disk.ReadPageDir(addr.Page)
	if err != nil {
		return err
	}
	p, err := page.FromImage(img)
	if err != nil {
		return err
	}
	if err := p.Delete(int(addr.Slot)); err != nil {
		return err
	}
	if err := m.disk.writePageDir(addr.Page, p.Image(), dir.Without(id)); err != nil {
		return err
	}
	m.pot.Delete(id)
	return nil
}
