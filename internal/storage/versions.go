package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
)

// ErrVersionCapExceeded refuses a new snapshot while the version store's
// retained before-images exceed the configured byte cap: admitting another
// snapshot would pin the watermark and let history grow without bound.
// Existing snapshots are unaffected; once they release and retirement
// drains the backlog below the cap, BeginSnapshot succeeds again.
var ErrVersionCapExceeded = errors.New("storage: version store over retained-bytes cap")

// VersionStore keeps page-level before-images so snapshot transactions can
// read a consistent past state without taking page locks (MVCC for reads;
// writers keep strict 2PL). It is the mechanism the paper's §6 "precautions
// for object replacement" asks for, promoted to a first-class snapshot
// facility: when a writer is about to change a page (or relocate an object,
// which changes the POT mapping a swizzled pointer resolves through), the
// old state is staged here, and published under a commit LSN once the
// commit is durable.
//
// Versioning model. Each commit batch that modified anything consumes one
// LSN L and publishes its staged before-images tagged L, meaning "this was
// the page's committed content for every read point < L". The store's
// stable point is the LSN of the latest durable publish; a snapshot begun
// now reads at R = stable. A snapshot read of page p resolves to:
//
//  1. the published version of p with the smallest tag > R, else
//  2. the pending (staged, uncommitted) before-image of p, else
//  3. the live disk page.
//
// Step 2 matters because writers in this system mutate the disk at
// operation time (undo restores it on abort), so the live page may carry
// uncommitted data; the pending before-image is then the newest committed
// content. POT mappings are versioned the same way, so a snapshot's
// Lookup survives relocations and never resolves to an object allocated
// after the snapshot began.
//
// Retirement. A published version tagged L can only serve read points
// < L, so once the watermark — the minimum read-LSN over active
// snapshots, or the stable point when none are active — reaches L, the
// version is unreachable and is dropped. Publishes enqueue their page/OID
// sets on a retire queue; releases and publishes drain the reachable
// prefix.
//
// What is staged is the page's published state as Disk holds it: the image
// and the directory published with that image (pageState), one immutable
// pair, so a snapshot read answers what a live read answers — the image,
// then the directory that describes it.
//
// Allocation fill pages and relocation target pages are deliberately NOT
// staged: the slots a writer fills there are unreachable through the
// snapshot's (versioned) POT, and existing slots on those pages keep their
// offsets (page.Insert/Delete never move other slots' directory entries).
// This mirrors the WAL-replay garbage-slot invariant. Their live
// directories may name such a slot, though, so a read withholds a
// directory that names a versioned OID (ReadPageDir).
type VersionStore struct {
	disk *Disk
	pot  *POT

	// entries counts retained page + POT entries (staged and published).
	// Zero means readers can go straight to disk without taking mu.
	entries atomic.Int64
	// stable is the read point assigned to new snapshots: the LSN of the
	// latest durable publish.
	stable atomic.Uint64
	obs    atomic.Pointer[metrics.Registry]

	// capBytes bounds the retained before-image bytes; at or below 0 the
	// store is unbounded. Enforced by AcquireSnapshot, not by stagers:
	// writers must always be able to stage (their locks are already held),
	// so the bound works by refusing to admit new history pinners.
	capBytes atomic.Int64

	mu       sync.RWMutex
	nextLSN  uint64
	pages    map[page.PageID]*pageChain
	pots     map[oid.OID]*potChain
	byTx     map[uint64]*txStaged
	snaps    map[uint64]uint64 // snapshot id -> read-LSN
	nextSnap uint64
	retire   []retireBatch // ascending by lsn
	bytes    int64
	lastLag  int64
}

// pageChain is the retained history of one page: published before-states
// in ascending LSN order, plus at most one pending (uncommitted) staged
// state — at most one because stagers hold the page X-lock until their
// commit publishes (or abort discards) it.
type pageChain struct {
	published []pageVersion
	pendingTx uint64 // 0 = no pending
	pending   *pageState
}

type pageVersion struct {
	lsn uint64
	st  *pageState
}

// potChain versions one OID's POT mapping; val.present=false records "not
// yet allocated at this read point".
type potChain struct {
	published  []potVersion
	pendingTx  uint64
	pending    potVal
	hasPending bool
}

type potVal struct {
	addr    PAddr
	present bool
}

type potVersion struct {
	lsn uint64
	val potVal
}

// txStaged is the set of entries one uncommitted transaction has staged.
type txStaged struct {
	pages map[page.PageID]struct{}
	pots  map[oid.OID]struct{}
}

// retireBatch remembers which chains a publish at lsn touched so
// retirement can find them without scanning every chain.
type retireBatch struct {
	lsn  uint64
	pids []page.PageID
	oids []oid.OID
}

func newVersionStore(d *Disk, t *POT) *VersionStore {
	return &VersionStore{
		disk:  d,
		pot:   t,
		pages: make(map[page.PageID]*pageChain),
		pots:  make(map[oid.OID]*potChain),
		byTx:  make(map[uint64]*txStaged),
		snaps: make(map[uint64]uint64),
	}
}

// SetMetrics installs (or removes, with nil) the observability registry.
func (vs *VersionStore) SetMetrics(r *metrics.Registry) { vs.obs.Store(r) }

func (vs *VersionStore) reg() *metrics.Registry { return vs.obs.Load() }

// StablePoint returns the read-LSN a snapshot begun now would get.
func (vs *VersionStore) StablePoint() uint64 { return vs.stable.Load() }

// SetCapBytes bounds the retained before-image bytes (0 or negative =
// unbounded). While the store holds more than the cap, AcquireSnapshot
// refuses with ErrVersionCapExceeded until retirement drains the backlog.
func (vs *VersionStore) SetCapBytes(n int64) { vs.capBytes.Store(n) }

// CapBytes returns the configured retained-bytes cap (0 = unbounded).
func (vs *VersionStore) CapBytes() int64 { return vs.capBytes.Load() }

// AcquireSnapshot registers a new snapshot and returns its id and
// read-LSN (the current stable point). With a retained-bytes cap set and
// exceeded, it refuses with ErrVersionCapExceeded instead of pinning the
// retirement watermark under even more history.
func (vs *VersionStore) AcquireSnapshot() (id, readLSN uint64, err error) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if limit := vs.capBytes.Load(); limit > 0 && vs.bytes > limit {
		vs.reg().Inc(metrics.CtrVersionCapRefusal)
		return 0, 0, fmt.Errorf("%w: %d bytes retained, cap %d", ErrVersionCapExceeded, vs.bytes, limit)
	}
	vs.nextSnap++
	id = vs.nextSnap
	readLSN = vs.stable.Load()
	vs.snaps[id] = readLSN
	vs.updateLagLocked()
	vs.reg().Inc(metrics.CtrSnapshotBegin)
	return id, readLSN, nil
}

// ReleaseSnapshot drops a snapshot, possibly advancing the retirement
// watermark.
func (vs *VersionStore) ReleaseSnapshot(id uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	delete(vs.snaps, id)
	vs.retireLocked()
	vs.updateLagLocked()
}

// watermarkLocked is the oldest read point any active snapshot can use;
// published versions tagged at or below it are unreachable.
func (vs *VersionStore) watermarkLocked() uint64 {
	wm := vs.stable.Load()
	for _, r := range vs.snaps {
		if r < wm {
			wm = r
		}
	}
	return wm
}

// Watermark returns the current retirement watermark.
func (vs *VersionStore) Watermark() uint64 {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return vs.watermarkLocked()
}

// StagePage records page pid's current published state — image and
// directory — as its before-state on behalf of uncommitted transaction tx.
// First stage wins: only the state before the transaction's first write is
// the committed content. The caller must hold the page X-lock and call
// this before it changes the page.
func (vs *VersionStore) StagePage(tx uint64, pid page.PageID) error {
	before, err := vs.disk.state(pid)
	if err != nil {
		return err
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	ch := vs.pages[pid]
	if ch == nil {
		ch = &pageChain{}
		vs.pages[pid] = ch
	}
	if ch.pendingTx != 0 {
		return nil // already staged (same tx: first write wins)
	}
	ch.pendingTx = tx
	ch.pending = before
	vs.txStagedLocked(tx).pages[pid] = struct{}{}
	vs.addEntryLocked(before.size())
	return nil
}

// StagePot records OID id's pre-transaction POT mapping (present=false
// when the transaction is allocating it). The caller must hold the
// object's page X-lock.
func (vs *VersionStore) StagePot(tx uint64, id oid.OID, addr PAddr, present bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	ch := vs.pots[id]
	if ch == nil {
		ch = &potChain{}
		vs.pots[id] = ch
	}
	if ch.hasPending {
		return
	}
	ch.hasPending = true
	ch.pendingTx = tx
	ch.pending = potVal{addr: addr, present: present}
	vs.txStagedLocked(tx).pots[id] = struct{}{}
	vs.addEntryLocked(potEntryBytes)
}

const potEntryBytes = 32 // approximate footprint of one POT overlay entry

func (vs *VersionStore) txStagedLocked(tx uint64) *txStaged {
	st := vs.byTx[tx]
	if st == nil {
		st = &txStaged{
			pages: make(map[page.PageID]struct{}),
			pots:  make(map[oid.OID]struct{}),
		}
		vs.byTx[tx] = st
	}
	return st
}

func (vs *VersionStore) addEntryLocked(nbytes int64) {
	vs.entries.Add(1)
	vs.bytes += nbytes
	r := vs.reg()
	r.GaugeAdd(metrics.GaugeVersionPages, 1)
	r.GaugeAdd(metrics.GaugeVersionBytes, nbytes)
}

func (vs *VersionStore) dropEntryLocked(nbytes int64) {
	vs.entries.Add(-1)
	vs.bytes -= nbytes
	r := vs.reg()
	r.GaugeAdd(metrics.GaugeVersionPages, -1)
	r.GaugeAdd(metrics.GaugeVersionBytes, -nbytes)
}

// Publish makes the staged before-images of the given committed
// transactions visible under one shared commit LSN and advances the
// stable point past them. The WAL group-commit writer calls this after a
// successful batch fsync, before any committer in the batch is woken (so
// before any page lock is released): one LSN per batch is what guarantees
// a snapshot never observes half a batch. Transactions with nothing
// staged cost nothing; a batch that staged nothing consumes no LSN.
func (vs *VersionStore) Publish(txs []uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	var rb retireBatch
	published := 0
	for _, tx := range txs {
		st := vs.byTx[tx]
		if st == nil {
			continue
		}
		delete(vs.byTx, tx)
		if published == 0 {
			vs.nextLSN++
			rb.lsn = vs.nextLSN
		}
		for pid := range st.pages {
			ch := vs.pages[pid]
			if ch == nil || ch.pendingTx != tx {
				continue
			}
			ch.published = append(ch.published, pageVersion{lsn: rb.lsn, st: ch.pending})
			ch.pendingTx, ch.pending = 0, nil
			rb.pids = append(rb.pids, pid)
			published++
		}
		for id := range st.pots {
			ch := vs.pots[id]
			if ch == nil || !ch.hasPending || ch.pendingTx != tx {
				continue
			}
			ch.published = append(ch.published, potVersion{lsn: rb.lsn, val: ch.pending})
			ch.hasPending, ch.pendingTx = false, 0
			rb.oids = append(rb.oids, id)
			published++
		}
	}
	if published == 0 {
		return
	}
	vs.stable.Store(rb.lsn)
	vs.retire = append(vs.retire, rb)
	vs.reg().AddN(metrics.CtrVersionPublish, int64(published))
	vs.retireLocked()
	vs.updateLagLocked()
}

// Discard drops transaction tx's staged entries after its undo ran
// (abort). Undo usually restores the exact bytes, in which case the live
// state already equals the before-image and the pending is simply
// dropped. When undo re-placed an object elsewhere (relocation undo), the
// live state differs from what a pre-abort snapshot must see, so the
// before-image is published under a fresh LSN — a "vacuum commit" that
// keeps those snapshots consistent. Call it after the undo loop, before
// releasing page locks.
func (vs *VersionStore) Discard(tx uint64) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	st := vs.byTx[tx]
	if st == nil {
		return
	}
	delete(vs.byTx, tx)
	var rb retireBatch
	published := 0
	claim := func() uint64 {
		if published == 0 {
			vs.nextLSN++
			rb.lsn = vs.nextLSN
		}
		published++
		return rb.lsn
	}
	for pid := range st.pages {
		ch := vs.pages[pid]
		if ch == nil || ch.pendingTx != tx {
			continue
		}
		live, err := vs.disk.state(pid)
		if err == nil && bytes.Equal(live.img, ch.pending.img) && bytes.Equal(live.dir, ch.pending.dir) {
			vs.dropEntryLocked(ch.pending.size())
			ch.pendingTx, ch.pending = 0, nil
			if len(ch.published) == 0 {
				delete(vs.pages, pid)
			}
			continue
		}
		ch.published = append(ch.published, pageVersion{lsn: claim(), st: ch.pending})
		ch.pendingTx, ch.pending = 0, nil
		rb.pids = append(rb.pids, pid)
	}
	for id := range st.pots {
		ch := vs.pots[id]
		if ch == nil || !ch.hasPending || ch.pendingTx != tx {
			continue
		}
		liveAddr, ok := vs.pot.Get(id)
		if ok == ch.pending.present && (!ok || liveAddr == ch.pending.addr) {
			vs.dropEntryLocked(potEntryBytes)
			ch.hasPending, ch.pendingTx = false, 0
			if len(ch.published) == 0 {
				delete(vs.pots, id)
			}
			continue
		}
		ch.published = append(ch.published, potVersion{lsn: claim(), val: ch.pending})
		ch.hasPending, ch.pendingTx = false, 0
		rb.oids = append(rb.oids, id)
	}
	if published > 0 {
		vs.stable.Store(rb.lsn)
		vs.retire = append(vs.retire, rb)
		vs.reg().AddN(metrics.CtrVersionPublish, int64(published))
	}
	vs.retireLocked()
	vs.updateLagLocked()
}

// ReadPageDir serves page pid as of read point readLSN: the newest
// committed state a snapshot at readLSN may see, the image and the
// directory published with it. Lock-free against writers — at most the
// store's RWMutex read side is taken, never a page lock — and under the
// same borrow contract as Disk.ReadPageDir.
//
// The directory is withheld — nil, and withheld true — when it names an
// OID whose POT mapping has a version that is pending or was published
// after readLSN. Such an object may lie elsewhere at the read point than
// where this directory puts it: a relocation target page is never staged,
// and its live directory names the moved object at its new slot. The image
// alone is still right for every slot the snapshot's Lookup reaches. The
// check follows the read, and StagePot precedes the Manager.Update that
// moves an object, so a directory that names the new slot is always seen
// together with the version that makes it wrong.
func (vs *VersionStore) ReadPageDir(readLSN uint64, pid page.PageID) (img []byte, dir page.Directory, withheld bool, err error) {
	vs.reg().Inc(metrics.CtrSnapshotRead)
	if vs.entries.Load() == 0 {
		img, dir, err = vs.disk.ReadPageDir(pid)
		// Writers stage before they write, so a store still empty after the
		// read means nothing the read saw is versioned.
		if err != nil || vs.entries.Load() == 0 {
			return img, dir, false, err
		}
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	var st *pageState
	if ch := vs.pages[pid]; ch != nil {
		if i := sort.Search(len(ch.published), func(i int) bool {
			return ch.published[i].lsn > readLSN
		}); i < len(ch.published) {
			st = ch.published[i].st
		} else if ch.pendingTx != 0 {
			st = ch.pending
		}
	}
	switch {
	case st == nil:
		// Read under the read lock: a stage of this page either happened
		// before it (and was found above) or happens after the read.
		if img, dir, err = vs.disk.ReadPageDir(pid); err != nil {
			return nil, nil, false, err
		}
	case sealReads.Load():
		img, dir = st.sealed()
	default:
		// Retained states are immutable once stored, so the references
		// themselves are the answer.
		vs.reg().Inc(metrics.CtrPageZeroCopyHit)
		img, dir = st.img, st.dir
	}
	if vs.namesVersionedLocked(readLSN, dir) {
		return img, nil, true, nil
	}
	return img, dir, false, nil
}

// namesVersionedLocked reports whether dir names an OID whose POT mapping
// has a version pending or published after readLSN.
func (vs *VersionStore) namesVersionedLocked(readLSN uint64, dir page.Directory) bool {
	if len(vs.pots) == 0 {
		return false
	}
	for i := 0; i < dir.Len(); i++ {
		e := dir.At(i)
		for k := uint16(0); k < e.Count; k++ {
			ch := vs.pots[e.First+oid.OID(k)]
			if ch != nil && (ch.hasPending || (len(ch.published) > 0 && ch.published[len(ch.published)-1].lsn > readLSN)) {
				return true
			}
		}
	}
	return false
}

// Lookup resolves OID id's POT mapping as of readLSN. ok=false with
// hit=true means the object did not exist at the read point; hit=false
// means the store has no opinion and the live POT mapping is the answer.
func (vs *VersionStore) Lookup(readLSN uint64, id oid.OID) (addr PAddr, ok, hit bool) {
	if vs.entries.Load() == 0 {
		return PAddr{}, false, false
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	ch := vs.pots[id]
	if ch == nil {
		return PAddr{}, false, false
	}
	if i := sort.Search(len(ch.published), func(i int) bool {
		return ch.published[i].lsn > readLSN
	}); i < len(ch.published) {
		v := ch.published[i].val
		return v.addr, v.present, true
	}
	if ch.hasPending {
		return ch.pending.addr, ch.pending.present, true
	}
	return PAddr{}, false, false
}

// retireLocked drops published versions no active snapshot can reach.
func (vs *VersionStore) retireLocked() {
	wm := vs.watermarkLocked()
	retired := int64(0)
	for len(vs.retire) > 0 && vs.retire[0].lsn <= wm {
		rb := vs.retire[0]
		vs.retire = vs.retire[1:]
		for _, pid := range rb.pids {
			ch := vs.pages[pid]
			if ch == nil {
				continue
			}
			for len(ch.published) > 0 && ch.published[0].lsn <= wm {
				vs.dropEntryLocked(ch.published[0].st.size())
				ch.published = ch.published[1:]
				retired++
			}
			if len(ch.published) == 0 && ch.pendingTx == 0 {
				delete(vs.pages, pid)
			}
		}
		for _, id := range rb.oids {
			ch := vs.pots[id]
			if ch == nil {
				continue
			}
			for len(ch.published) > 0 && ch.published[0].lsn <= wm {
				vs.dropEntryLocked(potEntryBytes)
				ch.published = ch.published[1:]
				retired++
			}
			if len(ch.published) == 0 && !ch.hasPending {
				delete(vs.pots, id)
			}
		}
	}
	if retired > 0 {
		vs.reg().AddN(metrics.CtrVersionRetire, retired)
	}
}

func (vs *VersionStore) updateLagLocked() {
	lag := int64(vs.stable.Load() - vs.watermarkLocked())
	if d := lag - vs.lastLag; d != 0 {
		vs.reg().GaugeAdd(metrics.GaugeSnapshotLag, d)
		vs.lastLag = lag
	}
}

// VersionStats is a point-in-time summary of the store, for tests and
// debug endpoints.
type VersionStats struct {
	Pages     int    // page chains retained
	POTs      int    // POT chains retained
	Entries   int64  // staged + published entries
	Bytes     int64  // approximate retained bytes
	Snapshots int    // active snapshots
	Stable    uint64 // current stable point
	Watermark uint64 // retirement watermark
}

// Stats returns a consistent snapshot of the store's size and read points.
func (vs *VersionStore) Stats() VersionStats {
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	return VersionStats{
		Pages:     len(vs.pages),
		POTs:      len(vs.pots),
		Entries:   vs.entries.Load(),
		Bytes:     vs.bytes,
		Snapshots: len(vs.snaps),
		Stable:    vs.stable.Load(),
		Watermark: vs.watermarkLocked(),
	}
}
