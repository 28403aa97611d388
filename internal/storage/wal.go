package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
)

// Write-ahead log (the recovery half of the paper's §2 "concurrency control
// and recovery", which GOM delegated to EXODUS and never evaluated).
//
// The simulated disk and the POT live in memory; durability comes from a
// WAL directory holding two kinds of files, named by a monotonically
// increasing checkpoint epoch E:
//
//	snap-<E>.gom   a full manager snapshot (exactly the Manager.Save
//	               format) taken at checkpoint time
//	wal-<E>.log    the append-only log of everything after that snapshot
//
// Log format: a 16-byte header ("GOMWAL01" + epoch), then records framed as
//
//	uint32 payload length | uint32 CRC-32C of payload | payload
//
// where a payload is one type byte plus the record body. Recovery replays
// snap-E + wal-E for the highest complete epoch and stops at the first
// frame that is truncated or fails its CRC — the torn tail a crash mid-write
// leaves behind — truncating the file there so the log stays append-clean.
//
// Redo rules (see DESIGN.md "Durability" for the full protocol):
//
//   - system records (segment creation, page-count growth) carry no
//     transaction and are always replayed: segments and pages are never
//     deallocated, so they are idempotent max-operations;
//   - transactional records (page images, POT puts/deletes) are replayed,
//     in log order, only when the transaction's commit record made it into
//     the durable prefix. Aborted or unfinished transactions are thereby
//     rolled back by omission — the replayed state is exactly the committed
//     prefix. Page images of committed transactions may carry record slots
//     of concurrently-allocating uncommitted transactions; those slots are
//     unreachable garbage (no POT entry resurrects them), never corruption.
//
// Commit durability is fsync-on-commit: TxServer appends each mutation at
// operation time, and at Commit CommitDurable group-commits its commit
// record — appended and fsynced together with every commit queued beside
// it (groupcommit.go). Faults are injectable at faultpoint.WALAppend (torn
// redo appends), faultpoint.WALBatchAppend and faultpoint.WALBatchSync
// (torn commit batches, failed or lost batch fsyncs) and faultpoint.WALSync
// (Sync's fsync).

// WAL record types.
const (
	walRecSegCreate   = byte(1) // seg u16                      (system)
	walRecEnsurePages = byte(2) // seg u16, count u64           (system)
	walRecPageImage   = byte(3) // tx u64, pid u64, image 4096B (redo if committed)
	walRecPotPut      = byte(4) // tx u64, oid u64, pid u64, slot u16
	walRecPotDelete   = byte(5) // tx u64, oid u64
	walRecCommit      = byte(6) // tx u64
	walRecAbort       = byte(7) // tx u64 (informational: replay skips the tx anyway)
)

const (
	walMagic     = "GOMWAL01"
	walHeaderLen = 16             // magic + epoch
	walFrameHdr  = 8              // length + crc
	walMaxRecord = page.Size + 64 // largest legal payload
	snapPattern  = "snap-%016d.gom"
	walPattern   = "wal-%016d.log"
	snapTmp      = "snap.tmp" // checkpoint staging file
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL errors.
var (
	ErrWALBroken = errors.New("storage: WAL poisoned by a failed append; recover before committing further work")
	ErrWALExists = errors.New("storage: WAL directory already holds a log; use RecoverManager")
)

// WAL is an append-only write-ahead log over one directory. It is safe for
// concurrent use: appends are serialized under mu, and commit records go
// through the group-commit queue, whose leader appends and fsyncs a whole
// batch at once.
type WAL struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	epoch  uint64
	off    int64 // logical end of the valid log
	synced int64 // prefix known durable (advanced by successful fsync)
	broken bool  // a failed/torn append poisons the tail
	nosync bool  // benchmark hook: count but skip fsyncs
	obs    *metrics.Registry

	// commitHook, when set, runs after a commit append is durable and
	// before the committer is released — the MVCC version store publishes
	// its staged before-images here, so publication happens strictly
	// before the committer's page locks drop. Failed or poisoned appends
	// never invoke it.
	commitHook atomic.Pointer[func(txs []uint64)]

	group groupCommit // the commit queue (groupcommit.go)
}

func newWAL(dir string) *WAL {
	w := &WAL{dir: dir}
	w.group.init()
	return w
}

// CreateWAL creates a fresh epoch-0 log in dir (creating the directory if
// needed). It refuses to run over an existing log — recover that instead.
func CreateWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if es := walEpochs(dir); len(es) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrWALExists, dir)
	}
	w := newWAL(dir)
	if err := w.openFresh(0); err != nil {
		return nil, err
	}
	return w, nil
}

// openFresh creates wal-<epoch>.log with its header and makes it current.
func (w *WAL) openFresh(epoch uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, fmt.Sprintf(walPattern, epoch)),
		os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.epoch = f, epoch
	w.off, w.synced = walHeaderLen, walHeaderLen
	w.broken = false
	return nil
}

// SetMetrics installs (or removes, with nil) the observability registry
// recording WAL activity.
func (w *WAL) SetMetrics(r *metrics.Registry) {
	w.mu.Lock()
	w.obs = r
	w.mu.Unlock()
}

// SetCommitHook installs (or removes, with nil) a callback invoked with
// each durable commit's transaction ids — one call per commit batch,
// after the fsync succeeded and before the committers are released. The
// transaction server publishes MVCC versions through it.
func (w *WAL) SetCommitHook(fn func(txs []uint64)) {
	if fn == nil {
		w.commitHook.Store(nil)
		return
	}
	w.commitHook.Store(&fn)
}

func (w *WAL) fireCommitHook(txs []uint64) {
	if fn := w.commitHook.Load(); fn != nil {
		(*fn)(txs)
	}
}

// SetNoSync disables fsync (benchmark hook isolating append cost from
// fsync cost; never use it when durability matters).
func (w *WAL) SetNoSync(v bool) {
	w.mu.Lock()
	w.nosync = v
	w.mu.Unlock()
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// Epoch returns the current checkpoint epoch.
func (w *WAL) Epoch() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Offset returns the logical end of the log (bytes of valid records plus
// header). Crash-point tests cut the file at offsets they recorded here.
func (w *WAL) Offset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// SyncedOffset returns the durable prefix length: everything past it may be
// lost by a crash (it grows on successful fsync). Lost-fsync tests truncate
// their crash images here.
func (w *WAL) SyncedOffset() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.synced
}

// Path returns the current log file's path.
func (w *WAL) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return filepath.Join(w.dir, fmt.Sprintf(walPattern, w.epoch))
}

// Metrics returns the installed observability registry (nil when none).
func (w *WAL) Metrics() *metrics.Registry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.obs
}

// Close makes every commit already queued durable, then closes the log
// file (the WAL is unusable afterwards: later commits fail).
func (w *WAL) Close() error {
	// Wait out the queue and any flush in progress; holding group.mu from
	// there on keeps a new flush from starting before the file is closed.
	g := &w.group
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hold = false
	g.wake.Broadcast()
	for g.flushing || len(g.queue) > 0 {
		g.wake.Wait()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// poisonLocked marks the WAL broken and truncates the unsynced tail.
// Everything above the durable prefix includes, at minimum, the records
// whose append or fsync just failed — records whose durability was (or is
// about to be) reported failed. Leaving them in the file would let a
// later successful fsync — a concurrent commit batch's, or the OS
// flushing dirty pages on its own — silently make them durable, and
// recovery would then replay commits the system reported failed.
// Truncation is best-effort (the device may be the reason we are here):
// the post-truncate sync that persists the new length ignores errors, and
// a crash before it lands leaves at worst the old tail, which is no worse
// than not truncating. Caller holds w.mu.
func (w *WAL) poisonLocked() {
	w.broken = true
	if w.f == nil {
		return
	}
	if err := w.f.Truncate(w.synced); err == nil {
		_ = w.f.Sync()
	}
	w.off = w.synced
}

// frame wraps a payload in length+CRC framing.
func walFrame(payload []byte) []byte {
	out := make([]byte, walFrameHdr+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, walCRC))
	copy(out[walFrameHdr:], payload)
	return out
}

// append writes one framed redo or system record without syncing it; the
// next commit batch's fsync (or Sync) makes it durable. The
// faultpoint.WALAppend site can tear the write at a byte offset — the torn
// bytes land in the file, the append fails, and the WAL is poisoned until
// recovery, exactly like a crash mid-write.
func (w *WAL) append(payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("storage: WAL is closed")
	}
	if w.broken {
		return ErrWALBroken
	}
	frame := walFrame(payload)
	n, ferr := faultpoint.CheckWrite(faultpoint.WALAppend, len(frame))
	if n > 0 {
		wn, err := w.f.WriteAt(frame[:n], w.off)
		w.off += int64(wn)
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	if ferr != nil {
		w.poisonLocked()
		return ferr
	}
	w.obs.Inc(metrics.CtrWALAppend)
	w.obs.AddN(metrics.CtrWALAppendBytes, int64(len(frame)))
	return nil
}

// Sync makes everything appended so far durable, under the
// faultpoint.WALSync site. A *failed* fsync (injected or real) poisons the
// WAL: records already appended — commit records in particular — would
// otherwise be silently made durable by the next successful sync, after
// their commits were reported failed. A *skipped* fsync (faultpoint Skip,
// or nosync mode) reports success without advancing the durable prefix: a
// later crash loses the tail.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		// The poisoned (and truncated) tail held records whose durability
		// was already reported failed; nothing past the durable prefix
		// may be synced into existence again.
		return ErrWALBroken
	}
	skip, err := faultpoint.CheckSync(faultpoint.WALSync)
	if err != nil {
		w.poisonLocked()
		return err
	}
	if skip || w.nosync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.poisonLocked()
		return err
	}
	w.synced = w.off
	w.obs.Inc(metrics.CtrWALFsync)
	return nil
}

// appendCommitBatch writes the commit records of one group-commit batch
// as a single write followed by a single fsync — the flush half of the
// group-commit pipeline (groupcommit.go). The faultpoint.WALBatchAppend
// site can tear the write at any byte — including inside any record of
// the batch, the partial-batch torn write — and faultpoint.WALBatchSync
// can fail or skip the shared fsync. Any failure poisons the WAL —
// truncating the unsynced tail, see poisonLocked — and fails every
// transaction in the batch, with two concurrency refinements resolved in
// the post-fsync critical section: a batch whose fsync failed after a
// concurrent batch's successful fsync already covered its records is
// durable and reports success, and a batch that finds the WAL poisoned
// (its records truncated out from under its in-flight fsync) reports
// ErrWALBroken even if its own fsync succeeded. Either way no
// transaction is ever reported failed while its commit record remains in
// the file for a later sync — or the OS's own writeback — to resurrect.
//
// The fsync itself runs with w.mu released: committers mid-transaction
// keep appending redo records (and reaching their own commit points)
// while the flush is on the device, and those are exactly the commits
// the next batch coalesces. Holding the mutex across the fsync would
// serialize the whole pipeline and batches would never form. This is
// safe because the batch's bytes sit below the captured end offset and
// fsync covers the whole file regardless of later appends.
//
// On success the append/fsync/publish stage timings are observed into
// the wal_phase_* histograms (exemplar-stamped with the batch's trace
// ID) and, when ph is non-nil, written into the caller's flight record.
func (w *WAL) appendCommitBatch(txs []uint64, ph *CommitPhases, exemplar uint64) error {
	start := time.Now()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return errors.New("storage: WAL is closed")
	}
	if w.broken {
		w.mu.Unlock()
		return ErrWALBroken
	}
	const frameLen = walFrameHdr + 9
	buf := make([]byte, 0, frameLen*len(txs))
	p := make([]byte, 9)
	for _, tx := range txs {
		p[0] = walRecCommit
		binary.LittleEndian.PutUint64(p[1:], tx)
		buf = append(buf, walFrame(p)...)
	}
	n, ferr := faultpoint.CheckWrite(faultpoint.WALBatchAppend, len(buf))
	if n > 0 {
		wn, err := w.f.WriteAt(buf[:n], w.off)
		w.off += int64(wn)
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	if ferr != nil {
		w.poisonLocked()
		w.mu.Unlock()
		return ferr
	}
	w.obs.AddN(metrics.CtrWALAppend, int64(len(txs)))
	w.obs.AddN(metrics.CtrWALAppendBytes, int64(len(buf)))
	end, f, nosync := w.off, w.f, w.nosync
	w.mu.Unlock()
	appendDone := time.Now()

	skip, serr := faultpoint.CheckSync(faultpoint.WALBatchSync)
	if serr == nil && !skip && !nosync {
		serr = f.Sync()
	}
	fsyncDone := time.Now()

	w.mu.Lock()
	defer w.mu.Unlock()
	// covered: a concurrent batch appended after us, fsynced successfully,
	// and advanced the durable prefix past our records before we got back
	// here. fsync covers the whole file, so our commit records are provably
	// durable whatever our own fsync said, and whether or not the WAL has
	// been poisoned since (poisoning truncates to the durable prefix, which
	// keeps them) — report success; failing them would be the resurrection
	// bug in reverse (transactions reported failed yet replayed as
	// committed after a crash).
	if covered := end <= w.synced; !covered {
		if w.broken {
			// Poisoned while our fsync was in flight: the poisoner
			// truncated the unsynced tail, which includes this batch's
			// records, so even a successful fsync here proves nothing
			// about them. Report failure without advancing synced or
			// firing the hook — the records are gone from the file, so
			// recovery cannot resurrect these transactions either.
			return ErrWALBroken
		}
		if serr != nil {
			// First to observe the failure: poison and truncate the
			// unsynced tail (see poisonLocked) so the batch's commit
			// records — whose durability is being reported failed right
			// here — can never be made durable by a later sync.
			w.poisonLocked()
			return serr
		}
	}
	if serr == nil && !skip && !nosync {
		if end > w.synced {
			w.synced = end
		}
		w.obs.Inc(metrics.CtrWALFsync)
	}
	w.finishCommitBatch(txs, ph, exemplar, start, appendDone, fsyncDone)
	return nil
}

// finishCommitBatch is the success tail of appendCommitBatch, run with
// w.mu held: it counts the durable batch, publishes MVCC versions before
// any committer in it wakes and releases page locks (one hook call for
// the whole batch is what makes the batch a single visibility unit for
// snapshots), observes the per-stage phase histograms, and fills the
// caller's flight record.
func (w *WAL) finishCommitBatch(txs []uint64, ph *CommitPhases, exemplar uint64, start, appendDone, fsyncDone time.Time) {
	w.obs.AddN(metrics.CtrWALCommit, int64(len(txs)))
	w.obs.Inc(metrics.CtrWALGroupBatch)
	w.obs.ObserveHist(metrics.HistWALBatchSize, int64(len(txs)))
	w.obs.ObserveHist(metrics.HistWALFlushLatency, int64(time.Since(start)))
	publishStart := time.Now()
	w.fireCommitHook(txs)
	appendNS := appendDone.Sub(start).Nanoseconds()
	fsyncNS := fsyncDone.Sub(appendDone).Nanoseconds()
	publishNS := time.Since(publishStart).Nanoseconds()
	w.obs.ObserveHistTrace(metrics.HistPhaseAppend, appendNS, exemplar)
	w.obs.ObserveHistTrace(metrics.HistPhaseFsync, fsyncNS, exemplar)
	w.obs.ObserveHistTrace(metrics.HistPhasePublish, publishNS, exemplar)
	if ph != nil {
		ph.BatchSize = len(txs)
		ph.AppendAt = start.UnixNano()
		ph.AppendNS = appendNS
		ph.FsyncAt = appendDone.UnixNano()
		ph.FsyncNS = fsyncNS
		ph.PublishAt = publishStart.UnixNano()
		ph.PublishNS = publishNS
	}
}

// The typed appends. System records pass tx 0.

// AppendSegCreate logs a segment creation (system record).
func (w *WAL) AppendSegCreate(seg uint16) error {
	p := make([]byte, 3)
	p[0] = walRecSegCreate
	binary.LittleEndian.PutUint16(p[1:], seg)
	return w.append(p)
}

// AppendEnsurePages logs "segment seg has at least count pages" (system
// record; replay appends freshly formatted pages up to the count).
func (w *WAL) AppendEnsurePages(seg uint16, count int) error {
	p := make([]byte, 11)
	p[0] = walRecEnsurePages
	binary.LittleEndian.PutUint16(p[1:], seg)
	binary.LittleEndian.PutUint64(p[3:], uint64(count))
	return w.append(p)
}

// AppendPageImage logs a full page image written under transaction tx.
func (w *WAL) AppendPageImage(tx uint64, pid page.PageID, img []byte) error {
	if len(img) != page.Size {
		return fmt.Errorf("storage: WAL page image is %d bytes, want %d", len(img), page.Size)
	}
	p := make([]byte, 17+page.Size)
	p[0] = walRecPageImage
	binary.LittleEndian.PutUint64(p[1:], tx)
	binary.LittleEndian.PutUint64(p[9:], uint64(pid))
	copy(p[17:], img)
	return w.append(p)
}

// AppendPotPut logs a POT insert/update under transaction tx.
func (w *WAL) AppendPotPut(tx uint64, id oid.OID, addr PAddr) error {
	p := make([]byte, 27)
	p[0] = walRecPotPut
	binary.LittleEndian.PutUint64(p[1:], tx)
	binary.LittleEndian.PutUint64(p[9:], uint64(id))
	binary.LittleEndian.PutUint64(p[17:], uint64(addr.Page))
	binary.LittleEndian.PutUint16(p[25:], addr.Slot)
	return w.append(p)
}

// AppendPotDelete logs a POT removal under transaction tx.
func (w *WAL) AppendPotDelete(tx uint64, id oid.OID) error {
	p := make([]byte, 17)
	p[0] = walRecPotDelete
	binary.LittleEndian.PutUint64(p[1:], tx)
	binary.LittleEndian.PutUint64(p[9:], uint64(id))
	return w.append(p)
}

// AppendAbort logs an abort marker (informational; replay skips
// uncommitted transactions with or without it).
func (w *WAL) AppendAbort(tx uint64) error {
	p := make([]byte, 9)
	p[0] = walRecAbort
	binary.LittleEndian.PutUint64(p[1:], tx)
	return w.append(p)
}

// Checkpoint rotates the log: it writes a full manager snapshot for epoch
// E+1 (staged and renamed so a crash never leaves a half snapshot under the
// real name), opens the fresh wal-(E+1).log, and deletes the old epoch's
// files. The caller must guarantee no transaction is in flight —
// TxServer.Checkpoint does — or uncommitted work would leak into the
// snapshot.
func (w *WAL) Checkpoint(m *Manager) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("storage: WAL is closed")
	}
	next := w.epoch + 1
	tmp := filepath.Join(w.dir, snapTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	snap := filepath.Join(w.dir, fmt.Sprintf(snapPattern, next))
	if err := os.Rename(tmp, snap); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(w.dir)
	// The snapshot is durable under its real name: from here on recovery
	// picks epoch `next` whether or not the fresh log exists yet.
	oldEpoch := w.epoch
	if err := w.openFresh(next); err != nil {
		return err
	}
	// Old-epoch files are garbage now; removal is best-effort.
	os.Remove(filepath.Join(w.dir, fmt.Sprintf(walPattern, oldEpoch)))
	os.Remove(filepath.Join(w.dir, fmt.Sprintf(snapPattern, oldEpoch)))
	w.obs.Inc(metrics.CtrWALCheckpoint)
	return nil
}

// syncDir fsyncs a directory so renames/creates in it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// walRec is one decoded log record.
type walRec struct {
	typ   byte
	tx    uint64
	seg   uint16
	count uint64
	pid   page.PageID
	id    oid.OID
	slot  uint16
	img   []byte
	end   int64 // file offset just past this record's frame
}

// scanWAL decodes the log image in data: header check, then records until
// the first truncated or corrupt frame. It returns the decoded records, the
// valid byte length (header included), and a human-readable reason when it
// stopped before the end. It never panics on corrupt input (fuzzed).
func scanWAL(data []byte) (epoch uint64, recs []walRec, valid int64, reason string) {
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		return 0, nil, 0, "missing or torn header"
	}
	epoch = binary.LittleEndian.Uint64(data[8:])
	off := int64(walHeaderLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return epoch, recs, off, ""
		}
		if len(rest) < walFrameHdr {
			return epoch, recs, off, "torn frame header"
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > walMaxRecord {
			return epoch, recs, off, fmt.Sprintf("implausible record length %d", n)
		}
		if int64(len(rest)) < walFrameHdr+n {
			return epoch, recs, off, "torn record body"
		}
		payload := rest[walFrameHdr : walFrameHdr+n]
		if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(rest[4:]) {
			return epoch, recs, off, "CRC mismatch"
		}
		r, ok := decodeWALPayload(payload)
		if !ok {
			return epoch, recs, off, fmt.Sprintf("malformed record type %d", payload[0])
		}
		off += walFrameHdr + n
		r.end = off
		recs = append(recs, r)
	}
}

// decodeWALPayload decodes one record payload (type byte + body).
func decodeWALPayload(p []byte) (walRec, bool) {
	var r walRec
	if len(p) == 0 {
		return r, false
	}
	r.typ = p[0]
	b := p[1:]
	switch r.typ {
	case walRecSegCreate:
		if len(b) != 2 {
			return r, false
		}
		r.seg = binary.LittleEndian.Uint16(b)
	case walRecEnsurePages:
		if len(b) != 10 {
			return r, false
		}
		r.seg = binary.LittleEndian.Uint16(b)
		r.count = binary.LittleEndian.Uint64(b[2:])
	case walRecPageImage:
		if len(b) != 16+page.Size {
			return r, false
		}
		r.tx = binary.LittleEndian.Uint64(b)
		r.pid = page.PageID(binary.LittleEndian.Uint64(b[8:]))
		r.img = b[16:]
	case walRecPotPut:
		if len(b) != 26 {
			return r, false
		}
		r.tx = binary.LittleEndian.Uint64(b)
		r.id = oid.OID(binary.LittleEndian.Uint64(b[8:]))
		r.pid = page.PageID(binary.LittleEndian.Uint64(b[16:]))
		r.slot = binary.LittleEndian.Uint16(b[24:])
	case walRecPotDelete:
		if len(b) != 16 {
			return r, false
		}
		r.tx = binary.LittleEndian.Uint64(b)
		r.id = oid.OID(binary.LittleEndian.Uint64(b[8:]))
	case walRecCommit, walRecAbort:
		if len(b) != 8 {
			return r, false
		}
		r.tx = binary.LittleEndian.Uint64(b)
	default:
		return r, false
	}
	return r, true
}

// WALRecordBoundaries returns every record boundary offset in the log file
// at path, starting with the end of the header and ending with the end of
// the last valid record. Crash-point sweeps cut the file at (and inside)
// these offsets.
func WALRecordBoundaries(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, recs, valid, _ := scanWAL(data)
	out := []int64{walHeaderLen}
	for _, r := range recs {
		out = append(out, r.end)
	}
	if valid != out[len(out)-1] {
		out = append(out, valid)
	}
	return out, nil
}

// Exported record-kind bytes for ScanLogFile consumers (tests and tools
// inspecting log structure).
const (
	RecordSegCreate   = walRecSegCreate
	RecordEnsurePages = walRecEnsurePages
	RecordPageImage   = walRecPageImage
	RecordPotPut      = walRecPotPut
	RecordPotDelete   = walRecPotDelete
	RecordCommit      = walRecCommit
	RecordAbort       = walRecAbort
)

// LogRecordInfo describes one decoded WAL record: its kind byte, owning
// transaction (0 for system records), the page it touches (page-image
// records only), and the file offset just past its frame.
type LogRecordInfo struct {
	Kind byte
	Tx   uint64
	Page page.PageID
	End  int64
}

// ScanLogFile decodes the log file at path and returns its record
// structure plus the valid prefix length (crash- and ordering-tests use
// it to locate commit records and cut points without re-deriving the
// framing).
func ScanLogFile(path string) ([]LogRecordInfo, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	_, recs, valid, _ := scanWAL(data)
	out := make([]LogRecordInfo, len(recs))
	for i, r := range recs {
		out[i] = LogRecordInfo{Kind: r.typ, Tx: r.tx, Page: r.pid, End: r.end}
	}
	return out, valid, nil
}

// RecoverInfo reports what recovery found and did.
type RecoverInfo struct {
	Epoch        uint64 // epoch recovered
	FromSnapshot bool   // a snapshot seeded the state
	Records      int    // valid records scanned
	Replayed     int    // records applied (system + committed)
	Committed    int    // committed transactions replayed
	Skipped      int    // transactions discarded (uncommitted/aborted)
	TornBytes    int64  // torn-tail bytes truncated from the log
	TornReason   string // why the scan stopped, "" when the tail was clean
}

func (ri RecoverInfo) String() string {
	s := fmt.Sprintf("epoch %d: %d records, %d replayed, %d txns committed, %d discarded",
		ri.Epoch, ri.Records, ri.Replayed, ri.Committed, ri.Skipped)
	if ri.TornBytes > 0 {
		s += fmt.Sprintf(", %d torn bytes truncated (%s)", ri.TornBytes, ri.TornReason)
	}
	return s
}

// walEpochs returns the epochs present in dir (from snapshot and log file
// names), ascending.
func walEpochs(dir string) []uint64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	seen := map[uint64]bool{}
	for _, e := range ents {
		var ep uint64
		if _, err := fmt.Sscanf(e.Name(), snapPattern, &ep); err == nil {
			seen[ep] = true
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), walPattern, &ep); err == nil {
			seen[ep] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for ep := range seen {
		out = append(out, ep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RecoverManager rebuilds a manager from a WAL directory: it loads the
// newest snapshot (or starts empty on the given volume), replays the log's
// committed prefix over it, truncates any torn tail, and returns the
// manager with the WAL attached and ready for new appends. A directory
// without any log state yields a fresh manager over a fresh epoch-0 log —
// so RecoverManager is also the "open or create" entry point.
func RecoverManager(dir string, volume uint16) (*Manager, *WAL, RecoverInfo, error) {
	var info RecoverInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, info, err
	}
	// A crash can strand the checkpoint staging file; it never holds the
	// real name, so it is always garbage.
	os.Remove(filepath.Join(dir, snapTmp))

	epochs := walEpochs(dir)
	var m *Manager
	w := newWAL(dir)
	if len(epochs) == 0 {
		m = NewManager(volume)
		if err := w.openFresh(0); err != nil {
			return nil, nil, info, err
		}
		m.AttachWAL(w)
		return m, w, info, nil
	}
	epoch := epochs[len(epochs)-1]
	info.Epoch = epoch

	snapPath := filepath.Join(dir, fmt.Sprintf(snapPattern, epoch))
	if f, err := os.Open(snapPath); err == nil {
		m, err = LoadManager(f)
		f.Close()
		if err != nil {
			return nil, nil, info, fmt.Errorf("storage: snapshot %s: %w", snapPath, err)
		}
		info.FromSnapshot = true
	} else {
		m = NewManager(volume)
	}

	walPath := filepath.Join(dir, fmt.Sprintf(walPattern, epoch))
	data, err := os.ReadFile(walPath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Crash between checkpoint rename and fresh-log creation: the
		// snapshot alone is the state.
		if err := w.openFresh(epoch); err != nil {
			return nil, nil, info, err
		}
		m.AttachWAL(w)
		return m, w, info, nil
	case err != nil:
		return nil, nil, info, err
	}

	fileEpoch, recs, valid, reason := scanWAL(data)
	if valid == 0 {
		// Header never made it to disk; the log holds nothing.
		info.TornBytes = int64(len(data))
		info.TornReason = reason
		if err := w.openFresh(epoch); err != nil {
			return nil, nil, info, err
		}
		m.AttachWAL(w)
		return m, w, info, nil
	}
	if fileEpoch != epoch {
		return nil, nil, info, fmt.Errorf("storage: %s claims epoch %d", walPath, fileEpoch)
	}
	info.Records = len(recs)
	info.TornBytes = int64(len(data)) - valid
	info.TornReason = reason

	if err := replayWAL(m, recs, &info); err != nil {
		return nil, nil, info, err
	}

	// Truncate the torn tail and adopt the file for new appends.
	f, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, info, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, info, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, info, err
	}
	w.f, w.epoch = f, epoch
	w.off, w.synced = valid, valid
	m.AttachWAL(w)
	return m, w, info, nil
}

// replayWAL applies the scanned records to the manager: system records
// unconditionally, transactional records only for committed transactions,
// all in log order.
func replayWAL(m *Manager, recs []walRec, info *RecoverInfo) error {
	committed := map[uint64]bool{}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r.tx != 0 {
			seen[r.tx] = true
		}
		if r.typ == walRecCommit {
			committed[r.tx] = true
		}
	}
	info.Committed = len(committed)
	info.Skipped = len(seen) - len(committed)

	maxSerial := uint64(0)
	for _, r := range recs {
		switch r.typ {
		case walRecSegCreate:
			if err := m.disk.CreateSegment(r.seg); err != nil && !errors.Is(err, ErrSegmentExist) {
				return err
			}
		case walRecEnsurePages:
			for {
				n, err := m.disk.NumPages(r.seg)
				if err != nil {
					return err
				}
				if uint64(n) >= r.count {
					break
				}
				if _, err := m.disk.AllocPage(r.seg); err != nil {
					return err
				}
			}
		case walRecPageImage:
			if r.tx != 0 && !committed[r.tx] {
				continue
			}
			if err := m.disk.WritePage(r.pid, r.img); err != nil {
				return fmt.Errorf("storage: replaying page %v: %w", r.pid, err)
			}
		case walRecPotPut:
			if r.tx != 0 && !committed[r.tx] {
				continue
			}
			m.pot.Put(r.id, PAddr{Page: r.pid, Slot: r.slot})
			if r.id.Volume() == m.gen.Volume() && r.id.Serial() > maxSerial {
				maxSerial = r.id.Serial()
			}
		case walRecPotDelete:
			if r.tx != 0 && !committed[r.tx] {
				continue
			}
			m.pot.Delete(r.id)
		case walRecCommit, walRecAbort:
			continue
		}
		info.Replayed++
	}
	m.obs().AddN(metrics.CtrWALReplayRecords, int64(info.Replayed))
	m.obs().AddN(metrics.CtrWALReplayTornBytes, info.TornBytes)

	// Replayed allocations burn OID serials past the snapshot's generator
	// state; never hand one out twice.
	if maxSerial >= m.gen.Peek() {
		m.gen = oid.NewGeneratorAt(m.gen.Volume(), maxSerial+1)
	}
	// Replay wrote page images and POT entries directly.
	return m.rebuildDirectories()
}

// obs returns the disk's registry (the manager has no registry of its own;
// WAL replay counters ride on the same registry as disk I/O).
func (m *Manager) obs() *metrics.Registry {
	return m.disk.obs.Load()
}
