package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
	"gom/internal/trace"
)

// Transaction layer (paper §2: "the object manager also provides
// concurrency control and recovery" — unevaluated there, implemented here
// as a server-side service so multiple client object managers can share
// one object base safely):
//
//   - strict two-phase locking at page granularity: ReadPage takes a
//     shared lock, WritePage an exclusive lock, both held to commit;
//   - object-level undo: Allocate and UpdateObject record compensation
//     actions, WritePage records a page before-image; Abort runs them in
//     reverse;
//   - deadlocks are resolved by lock-wait timeout (the waiter aborts with
//     ErrLockTimeout and should Abort its transaction);
//   - Recover aborts every live transaction (crash recovery: the durable
//     state then reflects only committed work).
//
// A transaction is used by building a client object manager over
// TxServer.Session(tx) — a Server implementation scoped to the
// transaction. After Abort, the client's buffers hold rolled-back images
// and must be Reset.

// Transaction errors.
var (
	ErrLockTimeout = errors.New("server: lock wait timeout (possible deadlock; abort the transaction)")
	ErrNoTx        = errors.New("server: no such transaction")
	ErrTxDone      = errors.New("server: transaction already finished")
	// ErrSnapshotReadOnly rejects writes through a snapshot session.
	ErrSnapshotReadOnly = errors.New("server: snapshot transaction is read-only")
)

// TxID identifies a transaction.
type TxID uint64

// lockMode is S or X.
type lockMode uint8

const (
	lockS lockMode = iota
	lockX
)

// pageLock is a shared/exclusive lock with writer priority: while any
// transaction waits for exclusive access, new shared requests from other
// transactions are held back. Without this, a steady influx of readers
// starves lock upgrades forever (the upgrader needs a moment with no other
// shared holders). Waiters poll on a condition variable; timeouts bound
// waits and resolve genuine deadlocks.
type pageLock struct {
	holders map[TxID]lockMode // invariant: either one X holder or N S holders
	waitX   int               // transactions currently waiting for X
}

func (l *pageLock) compatible(tx TxID, mode lockMode) bool {
	if mode == lockS && l.waitX > 0 {
		// Writer priority: queue behind the pending exclusive request
		// (the requester holding S already returned via the held-check).
		return false
	}
	for h, m := range l.holders {
		if h == tx {
			continue
		}
		if mode == lockX || m == lockX {
			return false
		}
	}
	return true
}

// undoFn compensates one action of a transaction.
type undoFn func(mgr *storage.Manager) error

type txState struct {
	locks map[page.PageID]lockMode
	undo  []undoFn
	done  bool
	// committing is set while the commit record is in the group-commit
	// pipeline, outside s.mu. Session calls and Abort treat a committing
	// transaction as finished (ErrTxDone): new work must not slip into
	// the log after the commit record, and the transaction's fate now
	// belongs to the fsync. A failed flush clears the flag — the
	// transaction stays alive and undoable.
	committing bool
	// Snapshot transactions (BeginSnapshot) read a frozen past state
	// through the version store and never take page locks; snapDone lets
	// the lock-free snapSession observe Commit/Abort without s.mu.
	snap     bool
	snapID   uint64
	readLSN  uint64
	snapDone *atomic.Bool
}

// TxServer provides transactional sessions over one storage manager. It
// is safe for concurrent use by many clients (each in its own goroutine).
type TxServer struct {
	mgr     *storage.Manager
	timeout time.Duration

	// obs records commit-pipeline observability (end-to-end latency, the
	// lock-release phase, the slow-op log). Atomic so SetMetrics can be
	// called while serving; nil means uninstrumented.
	obs atomic.Pointer[metrics.Registry]

	mu    sync.Mutex
	cond  *sync.Cond
	next  TxID
	locks map[page.PageID]*pageLock
	txs   map[TxID]*txState
}

// NewTxServer wraps a storage manager. timeout bounds lock waits
// (deadlock resolution); 0 means a 2-second default.
func NewTxServer(mgr *storage.Manager, timeout time.Duration) *TxServer {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	s := &TxServer{
		mgr:     mgr,
		timeout: timeout,
		locks:   make(map[page.PageID]*pageLock),
		txs:     make(map[TxID]*txState),
	}
	s.cond = sync.NewCond(&s.mu)
	// MVCC version publication on durable commit is wired by
	// Manager.AttachWAL (not here), so a WAL attached after this server is
	// built still publishes staged before-images with every commit batch.
	return s
}

// Manager exposes the underlying storage manager (non-transactional
// tooling such as generators uses it before serving begins).
func (s *TxServer) Manager() *storage.Manager { return s.mgr }

// SetMetrics installs (or removes, with nil) the registry recording
// commit-pipeline observability: end-to-end commit latency, the
// lock-release phase, and slow-commit capture.
func (s *TxServer) SetMetrics(r *metrics.Registry) { s.obs.Store(r) }

// Begin starts a transaction.
func (s *TxServer) Begin() TxID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	tx := s.next
	s.txs[tx] = &txState{locks: make(map[page.PageID]lockMode)}
	return tx
}

// BeginSnapshot starts a read-only snapshot transaction. Its read-LSN is
// the version store's current stable point — the latest durable commit
// batch boundary — and is returned so clients can tag cached pages.
// Reads under the snapshot take no page locks and never block behind (or
// deadlock with) writers; writes are rejected with ErrSnapshotReadOnly.
// With a version-store byte cap configured and exceeded, it fails with
// storage.ErrVersionCapExceeded (retryable once old snapshots release).
func (s *TxServer) BeginSnapshot() (TxID, uint64, error) {
	sid, lsn, err := s.mgr.Versions().AcquireSnapshot()
	if err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	tx := s.next
	s.txs[tx] = &txState{
		locks:    make(map[page.PageID]lockMode),
		snap:     true,
		snapID:   sid,
		readLSN:  lsn,
		snapDone: &atomic.Bool{},
	}
	return tx, lsn, nil
}

// Live returns the number of unfinished transactions.
func (s *TxServer) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txs)
}

// acquire takes a page lock for the transaction, blocking up to the
// timeout. Lock upgrades (S→X) are supported.
func (s *TxServer) acquire(tx TxID, pid page.PageID, mode lockMode) error {
	deadline := time.Now().Add(s.timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Writer-priority bookkeeping: an X requester registers itself so new
	// shared grants pause until it is served (or gives up). The lock
	// object is stable while registered: finish() keeps locks with
	// waiting writers alive.
	var regLock *pageLock
	defer func() {
		if regLock != nil {
			regLock.waitX--
			if len(regLock.holders) == 0 && regLock.waitX == 0 && s.locks[pid] == regLock {
				delete(s.locks, pid)
			}
			s.cond.Broadcast()
		}
	}()
	for {
		st, ok := s.txs[tx]
		if !ok || st.done || st.committing {
			return fmt.Errorf("%w: %d", ErrTxDone, tx)
		}
		l := s.locks[pid]
		if l == nil {
			l = &pageLock{holders: make(map[TxID]lockMode)}
			s.locks[pid] = l
		}
		if held, ok := st.locks[pid]; ok && (held == lockX || held == mode) {
			return nil // already held strongly enough
		}
		if l.compatible(tx, mode) {
			l.holders[tx] = mode
			st.locks[pid] = mode
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: page %v", ErrLockTimeout, pid)
		}
		if mode == lockX && regLock == nil {
			l.waitX++
			regLock = l
		}
		// Wait with a wake-up tick so timeouts fire without a separate
		// timer per waiter.
		waitCtx := make(chan struct{})
		go func() {
			select {
			case <-time.After(50 * time.Millisecond):
				s.cond.Broadcast()
			case <-waitCtx:
			}
		}()
		s.cond.Wait()
		close(waitCtx)
	}
}

// finish releases a transaction's locks and removes it.
func (s *TxServer) finish(tx TxID, st *txState) {
	for pid := range st.locks {
		if l := s.locks[pid]; l != nil {
			delete(l.holders, tx)
			if len(l.holders) == 0 && l.waitX == 0 {
				delete(s.locks, pid)
			}
		}
	}
	st.done = true
	delete(s.txs, tx)
	s.cond.Broadcast()
}

// Commit ends the transaction, making its writes durable and visible.
// With a WAL attached the commit record is made durable first, through
// the group-commit pipeline: the record is handed to the WAL's writer
// goroutine, which coalesces concurrent commits into one append+fsync
// (storage/groupcommit.go). The wait happens *outside* s.mu, so
// committers serialize only against each other inside the WAL writer —
// not against every other transaction's lock traffic. If durability
// fails, the transaction stays alive (and undoable), because work that
// never reached the log must not become visible.
//
// Read-only transactions (no undo actions, hence no tx-tagged redo
// records in the log — every tx-tagged append is preceded by a
// successful logUndo) have nothing a commit record would make visible at
// replay; they release their locks immediately and never enter the
// commit queue.
func (s *TxServer) Commit(tx TxID) error {
	return s.CommitCtx(tx, nil, trace.Context{})
}

// CommitCtx is Commit with flight-recorder context: the durable path
// records the commit's end-to-end latency and lock-release phase into
// the registry installed with SetMetrics (exemplar-stamped with the
// caller's trace ID), re-emits the pipeline's phase stamps as
// retroactive commit:* spans nested under parent, and captures slow
// commits — phase breakdown attached — into the slow-op log. Snapshot
// and read-only commits take none of the pipeline's stages and are not
// decomposed.
func (s *TxServer) CommitCtx(tx TxID, tr *trace.Tracer, parent trace.Context) error {
	start := time.Now()
	s.mu.Lock()
	st, ok := s.txs[tx]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoTx, tx)
	}
	if st.done || st.committing {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrTxDone, tx)
	}
	if st.snap {
		st.snapDone.Store(true)
		s.finish(tx, st)
		s.mu.Unlock()
		s.mgr.Versions().ReleaseSnapshot(st.snapID)
		return nil
	}
	w := s.mgr.WAL()
	if w == nil || len(st.undo) == 0 {
		if w != nil {
			w.Metrics().Inc(metrics.CtrTxReadOnlyCommit)
		} else if len(st.undo) > 0 {
			// Non-durable writer: no WAL hook will fire, publish the
			// staged before-images here, before the locks drop.
			s.mgr.Versions().Publish([]uint64{uint64(tx)})
		}
		s.finish(tx, st)
		s.mu.Unlock()
		return nil
	}
	st.committing = true
	s.mu.Unlock()

	ph, err := w.CommitDurablePhases(uint64(tx), parent.TraceID)

	s.mu.Lock()
	if err != nil {
		st.committing = false
		s.mu.Unlock()
		return fmt.Errorf("server: commit of tx %d not durable: %w", tx, err)
	}
	lockStart := time.Now()
	s.finish(tx, st)
	s.mu.Unlock()
	lockNS := time.Since(lockStart).Nanoseconds()

	obs := s.obs.Load()
	e2e := time.Since(start)
	obs.ObserveHistTrace(metrics.HistPhaseLockRelease, lockNS, parent.TraceID)
	obs.ObserveHistTrace(metrics.HistCommitE2E, int64(e2e), parent.TraceID)
	emitCommitSpans(tr, parent, tx, ph, lockStart, lockNS)
	if sl := obs.Slow(); sl.Threshold() > 0 && e2e >= sl.Threshold() {
		sl.Note(metrics.SlowEntry{
			Op:      metrics.RPCTxCommit.String(),
			DurNS:   int64(e2e),
			TraceID: parent.TraceID,
			Phases: &metrics.SlowPhases{
				EnqueueWaitNS: ph.EnqueueWaitNS,
				LingerNS:      ph.LingerNS,
				AppendNS:      ph.AppendNS,
				FsyncNS:       ph.FsyncNS,
				PublishNS:     ph.PublishNS,
				LockReleaseNS: lockNS,
				BatchSize:     ph.BatchSize,
			},
		})
	}
	return nil
}

// The retroactive commit phase spans, nested under the serving RPC span.
const (
	spanCommitEnqueue     = "commit:enqueue"
	spanCommitLinger      = "commit:linger"
	spanCommitAppend      = "commit:append"
	spanCommitFsync       = "commit:fsync"
	spanCommitPublish     = "commit:publish"
	spanCommitLockRelease = "commit:lock_release"
)

// emitCommitSpans re-emits a durable commit's phase stamps as child
// spans of parent. The stages already happened — timed in the storage
// layer and carried back on the CommitPhases record — so the spans are
// recorded after the fact. Arguments carry (tx, batch size).
func emitCommitSpans(tr *trace.Tracer, parent trace.Context, tx TxID, ph storage.CommitPhases, lockStart time.Time, lockNS int64) {
	if tr == nil || !parent.Traced() {
		return
	}
	a, b := uint64(tx), uint64(ph.BatchSize)
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	tr.RecordSpan(spanCommitEnqueue, parent, at(ph.EnqueuedAt), time.Duration(ph.EnqueueWaitNS), a, b)
	// The linger interval ends where the flush (append) begins.
	tr.RecordSpan(spanCommitLinger, parent, at(ph.AppendAt-ph.LingerNS), time.Duration(ph.LingerNS), a, b)
	tr.RecordSpan(spanCommitAppend, parent, at(ph.AppendAt), time.Duration(ph.AppendNS), a, b)
	tr.RecordSpan(spanCommitFsync, parent, at(ph.FsyncAt), time.Duration(ph.FsyncNS), a, b)
	tr.RecordSpan(spanCommitPublish, parent, at(ph.PublishAt), time.Duration(ph.PublishNS), a, b)
	tr.RecordSpan(spanCommitLockRelease, parent, lockStart, time.Duration(lockNS), a, b)
}

// Alive reports whether the transaction is still live (undoable). The
// wire layer uses it after a failed commit: the transaction is not gone —
// it holds its locks and must still be aborted or retried.
func (s *TxServer) Alive(tx TxID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	return ok && !st.done
}

// WriteSet returns the pages the transaction holds exclusive locks on —
// the set of page images its commit changes. The wire layer captures it
// just before CommitCtx (which releases the locks) and, once the commit
// is durable, pushes coherence invalidations for exactly these pages.
func (s *TxServer) WriteSet(tx TxID) []page.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	if !ok {
		return nil
	}
	var pids []page.PageID
	for pid, m := range st.locks {
		if m == lockX {
			pids = append(pids, pid)
		}
	}
	return pids
}

// Abort rolls the transaction back by running its undo actions in reverse
// order, then releases its locks. The transaction is marked done before
// the undo phase runs outside the server lock, so a racing session call
// cannot acquire new locks or log new undo actions into a rollback that
// has already begun (they get ErrTxDone instead, and their work never
// happens).
func (s *TxServer) Abort(tx TxID) error {
	s.mu.Lock()
	st, ok := s.txs[tx]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoTx, tx)
	}
	if st.done || st.committing {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrTxDone, tx)
	}
	if st.snap {
		st.snapDone.Store(true)
		s.finish(tx, st)
		s.mu.Unlock()
		s.mgr.Versions().ReleaseSnapshot(st.snapID)
		return nil
	}
	st.done = true
	undo := st.undo
	st.undo = nil
	s.mu.Unlock()

	var errs []error
	for i := len(undo) - 1; i >= 0; i-- {
		if err := undo[i](s.mgr); err != nil {
			errs = append(errs, err)
		}
	}
	// Undo ran: drop (or, where undo re-placed state elsewhere, publish)
	// this transaction's staged before-images while its page locks still
	// shield the pages — see VersionStore.Discard.
	s.mgr.Versions().Discard(uint64(tx))
	if w := s.mgr.WAL(); w != nil {
		// Informational: replay discards uncommitted transactions with or
		// without the marker, so a failed append is not an abort failure.
		_ = w.AppendAbort(uint64(tx))
	}

	s.mu.Lock()
	s.finish(tx, st)
	s.mu.Unlock()
	return errors.Join(errs...)
}

// Recover aborts every live transaction — what restart-after-crash does
// with the undo information. Transactions that finish concurrently (a
// racing Commit or Abort) are not errors.
func (s *TxServer) Recover() error {
	s.mu.Lock()
	ids := make([]TxID, 0, len(s.txs))
	for tx := range s.txs {
		ids = append(ids, tx)
	}
	s.mu.Unlock()
	var errs []error
	for _, tx := range ids {
		if err := s.Abort(tx); err != nil &&
			!errors.Is(err, ErrNoTx) && !errors.Is(err, ErrTxDone) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Checkpoint rotates the attached WAL onto a fresh epoch with a full
// snapshot. It requires a quiet moment: no transaction may be in flight
// (their uncommitted writes would leak into the snapshot), and new
// transactions cannot begin while it runs.
func (s *TxServer) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.mgr.WAL()
	if w == nil {
		return errors.New("server: no WAL attached")
	}
	if n := len(s.txs); n > 0 {
		return fmt.Errorf("server: checkpoint with %d transactions in flight", n)
	}
	return w.Checkpoint(s.mgr)
}

func (s *TxServer) logUndo(tx TxID, fn undoFn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txs[tx]
	if !ok || st.done || st.committing {
		return fmt.Errorf("%w: %d", ErrTxDone, tx)
	}
	st.undo = append(st.undo, fn)
	return nil
}

// Session returns a Server scoped to the transaction: every page a 2PL
// transaction touches is locked under strict 2PL, and every modification
// is undoable until Commit. For a snapshot transaction the session is a
// lock-free read-only view at its read-LSN.
func (s *TxServer) Session(tx TxID) Server { return s.session(tx) }

// session is Session as the TCP data plane serves it, page directories
// included.
func (s *TxServer) session(tx TxID) dirPageReader {
	s.mu.Lock()
	st := s.txs[tx]
	s.mu.Unlock()
	if st != nil && st.snap {
		return &snapSession{srv: s, readLSN: st.readLSN, done: st.snapDone}
	}
	return &txSession{srv: s, tx: tx}
}

type txSession struct {
	srv *TxServer
	tx  TxID
}

// wal returns the manager's WAL, nil when the server is not durable.
func (c *txSession) wal() *storage.WAL { return c.srv.mgr.WAL() }

// walLogPage appends the current image of pid as a redo record for this
// transaction. The caller holds the page's X-lock, so the image is the
// transaction's own write (modulo record slots a concurrently-allocating
// transaction placed through the manager before blocking on the lock —
// those replay as unreachable garbage unless that transaction commits and
// logs its own, later image; see DESIGN.md "Durability").
func (c *txSession) walLogPage(w *storage.WAL, pid page.PageID) error {
	img, err := c.srv.mgr.Disk().ReadPage(pid)
	if err != nil {
		return err
	}
	return w.AppendPageImage(uint64(c.tx), pid, img)
}

// walLogAlloc appends the redo records for a fresh allocation at addr:
// grow the segment to its current page count, the page image, the POT
// entry.
func (c *txSession) walLogAlloc(id oid.OID, addr storage.PAddr) error {
	w := c.wal()
	if w == nil {
		return nil
	}
	seg := addr.Page.Segment()
	n, err := c.srv.mgr.Disk().NumPages(seg)
	if err != nil {
		return err
	}
	if err := w.AppendEnsurePages(seg, n); err != nil {
		return err
	}
	if err := c.walLogPage(w, addr.Page); err != nil {
		return err
	}
	return w.AppendPotPut(uint64(c.tx), id, addr)
}

// Lookup implements Server (the POT is consulted without locking: the
// physical address of an object is protected by its page's lock once the
// page is read).
func (c *txSession) Lookup(id oid.OID) (storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerLookup); err != nil {
		return storage.PAddr{}, err
	}
	return c.srv.mgr.Lookup(id)
}

// ReadPage implements Server under a shared lock.
func (c *txSession) ReadPage(pid page.PageID) ([]byte, error) {
	img, _, err := c.readPageDir(pid)
	return img, err
}

func (c *txSession) readPageDir(pid page.PageID) ([]byte, page.Directory, error) {
	if err := faultpoint.Check(faultpoint.ServerReadPage); err != nil {
		return nil, nil, err
	}
	if err := c.srv.acquire(c.tx, pid, lockS); err != nil {
		return nil, nil, err
	}
	return c.srv.mgr.Disk().ReadPageDir(pid)
}

// WritePage implements Server under an exclusive lock, recording the page
// before-image.
func (c *txSession) WritePage(pid page.PageID, img []byte) error {
	if err := faultpoint.Check(faultpoint.ServerWritePage); err != nil {
		return err
	}
	if err := c.srv.acquire(c.tx, pid, lockX); err != nil {
		return err
	}
	before, err := c.srv.mgr.Disk().ReadPage(pid)
	if err != nil {
		return err
	}
	if err := c.srv.logUndo(c.tx, func(mgr *storage.Manager) error {
		return mgr.Disk().WritePage(pid, before)
	}); err != nil {
		return err
	}
	// Stage the before-state (image and directory) for snapshot readers
	// before the dirty bytes hit the disk (writers mutate the disk at
	// operation time here, so the pending state is the newest committed
	// content until commit publishes it).
	if err := c.srv.mgr.Versions().StagePage(uint64(c.tx), pid); err != nil {
		return err
	}
	if err := c.srv.mgr.Disk().WritePage(pid, img); err != nil {
		return err
	}
	if w := c.wal(); w != nil {
		return w.AppendPageImage(uint64(c.tx), pid, img)
	}
	return nil
}

// Allocate implements Server; the undo deletes the object again.
func (c *txSession) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerAllocate); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	id, addr, err := c.srv.mgr.Allocate(seg, rec)
	if err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	if err := c.lockAllocation(id, addr); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	return id, addr, nil
}

// AllocateNear implements Server.
func (c *txSession) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerAllocateNear); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	id, addr, err := c.srv.mgr.AllocateNear(seg, neighbor, rec)
	if err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	if err := c.lockAllocation(id, addr); err != nil {
		return oid.Nil, storage.PAddr{}, err
	}
	return id, addr, nil
}

func (c *txSession) lockAllocation(id oid.OID, addr storage.PAddr) error {
	// The allocation already happened (placement is the manager's
	// choice); lock its page and log the compensation. If the lock cannot
	// be taken, compensate immediately.
	if err := c.srv.acquire(c.tx, addr.Page, lockX); err != nil {
		_ = c.srv.mgr.Delete(id)
		return err
	}
	if err := c.srv.logUndo(c.tx, func(mgr *storage.Manager) error {
		return mgr.Delete(id)
	}); err != nil {
		return err
	}
	// Snapshots begun before this commit must not resolve the fresh OID:
	// stage its absence. The fill page itself is not staged — the new
	// slot is unreachable through a snapshot's versioned POT, and
	// inserts never move other slots' directory entries.
	c.srv.mgr.Versions().StagePot(uint64(c.tx), id, storage.PAddr{}, false)
	return c.walLogAlloc(id, addr)
}

// UpdateObject implements Server, logging the object's before-image (an
// object-level undo survives relocations in both directions).
func (c *txSession) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	if err := faultpoint.Check(faultpoint.ServerUpdateObject); err != nil {
		return storage.PAddr{}, err
	}
	addr, err := c.srv.mgr.Lookup(id)
	if err != nil {
		return storage.PAddr{}, err
	}
	if err := c.srv.acquire(c.tx, addr.Page, lockX); err != nil {
		return storage.PAddr{}, err
	}
	// Capture the before-image under the lock (the object may have moved
	// between Lookup and acquire; re-read resolves the current state).
	var before []byte
	before, addr, err = c.srv.mgr.Read(id)
	if err != nil {
		return storage.PAddr{}, err
	}
	if err := c.srv.acquire(c.tx, addr.Page, lockX); err != nil {
		return storage.PAddr{}, err
	}
	// Register the undo and stage the snapshot before-states ahead of the
	// update: restoring `before` is correct whether or not the update
	// lands, and the staged page/POT state must be the pre-update one. A
	// relocation target page is deliberately not staged: its new slot is
	// unreachable through the snapshot's versioned POT mapping below, and
	// its live directory, which names that slot, is withheld from snapshot
	// reads while the mapping is versioned — which is why StagePot must
	// come before the update publishes that directory.
	if err := c.srv.logUndo(c.tx, func(mgr *storage.Manager) error {
		_, uerr := mgr.Update(id, before)
		return uerr
	}); err != nil {
		return storage.PAddr{}, err
	}
	vs := c.srv.mgr.Versions()
	if err := vs.StagePage(uint64(c.tx), addr.Page); err != nil {
		return storage.PAddr{}, err
	}
	vs.StagePot(uint64(c.tx), id, addr, true)
	newAddr, err := c.srv.mgr.Update(id, rec)
	if err != nil {
		return storage.PAddr{}, err
	}
	if newAddr.Page != addr.Page {
		if err := c.srv.acquire(c.tx, newAddr.Page, lockX); err != nil {
			return storage.PAddr{}, err
		}
	}
	if w := c.wal(); w != nil {
		// A relocating update may have grown the segment and touches two
		// pages (both X-locked above); log the whole effect.
		n, err := c.srv.mgr.Disk().NumPages(newAddr.Page.Segment())
		if err != nil {
			return storage.PAddr{}, err
		}
		if err := w.AppendEnsurePages(newAddr.Page.Segment(), n); err != nil {
			return storage.PAddr{}, err
		}
		if newAddr.Page != addr.Page {
			if err := c.walLogPage(w, addr.Page); err != nil {
				return storage.PAddr{}, err
			}
		}
		if err := c.walLogPage(w, newAddr.Page); err != nil {
			return storage.PAddr{}, err
		}
		if err := w.AppendPotPut(uint64(c.tx), id, newAddr); err != nil {
			return storage.PAddr{}, err
		}
	}
	return newAddr, nil
}

// NumPages implements Server.
func (c *txSession) NumPages(seg uint16) (int, error) {
	if err := faultpoint.Check(faultpoint.ServerNumPages); err != nil {
		return 0, err
	}
	return c.srv.mgr.Disk().NumPages(seg)
}

// LookupBatch implements BatchLookuper (like Lookup, the POT is consulted
// without page locks; each address is protected by its page's lock once
// the page is read).
func (c *txSession) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	if err := faultpoint.Check(faultpoint.ServerLookupBatch); err != nil {
		return nil, nil, err
	}
	addrs, ok := c.srv.mgr.LookupBatch(ids)
	return addrs, ok, nil
}

// ReadPages implements PageRunReader under shared locks: every page of the
// run is S-locked before the images ship, so the run is as consistent as
// the equivalent sequence of ReadPage calls.
func (c *txSession) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	imgs, _, err := c.readPagesDir(pid, n)
	return imgs, err
}

func (c *txSession) readPagesDir(pid page.PageID, n int) ([][]byte, []page.Directory, error) {
	if err := faultpoint.Check(faultpoint.ServerReadPages); err != nil {
		return nil, nil, err
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("server: read run of %d pages", n)
	}
	// Truncate the run to the segment before locking, so the lock set
	// matches the pages actually shipped.
	total, err := c.srv.mgr.Disk().NumPages(pid.Segment())
	if err != nil {
		return nil, nil, err
	}
	if pid.No() >= uint64(total) {
		return nil, nil, fmt.Errorf("%w: %v", storage.ErrNoPage, pid)
	}
	if rest := uint64(total) - pid.No(); uint64(n) > rest {
		n = int(rest)
	}
	for i := 0; i < n; i++ {
		if err := c.srv.acquire(c.tx, page.NewPageID(pid.Segment(), pid.No()+uint64(i)), lockS); err != nil {
			return nil, nil, err
		}
	}
	return c.srv.mgr.Disk().ReadRunDir(pid, n)
}

var (
	_ Server        = (*txSession)(nil)
	_ BatchLookuper = (*txSession)(nil)
	_ PageRunReader = (*txSession)(nil)
	_ dirPageReader = (*txSession)(nil)
)

// snapSession is the Server view of a snapshot transaction: reads resolve
// through the version store at the snapshot's read-LSN and take no page
// locks at all — a snapshot read never blocks behind a writer's X-lock
// and never deadlocks. Writes are rejected. The done flag (shared with
// the TxServer's txState) is the only transaction state consulted, so the
// hot read path costs two atomic loads on top of the storage access.
type snapSession struct {
	srv     *TxServer
	readLSN uint64
	done    *atomic.Bool
}

func (c *snapSession) err() error {
	if c.done.Load() {
		return ErrTxDone
	}
	return nil
}

// Lookup implements Server against the snapshot's versioned POT overlay.
func (c *snapSession) Lookup(id oid.OID) (storage.PAddr, error) {
	if err := c.err(); err != nil {
		return storage.PAddr{}, err
	}
	return c.srv.mgr.SnapshotLookup(c.readLSN, id)
}

// ReadPage implements Server, lock-free (see VersionStore.ReadPageDir).
func (c *snapSession) ReadPage(pid page.PageID) ([]byte, error) {
	img, _, err := c.readPageDir(pid)
	return img, err
}

// readPageDir reads the page as of the read point with the directory
// published with that image — or without it, where the snapshot-consistency
// rule withholds it (counted as snapshot_dir_withheld).
func (c *snapSession) readPageDir(pid page.PageID) ([]byte, page.Directory, error) {
	if err := c.err(); err != nil {
		return nil, nil, err
	}
	img, dir, withheld, err := c.srv.mgr.SnapshotReadPageDir(c.readLSN, pid)
	if withheld {
		c.srv.obs.Load().Inc(metrics.CtrSnapshotDirWithheld)
	}
	return img, dir, err
}

// WritePage implements Server: snapshots are read-only.
func (c *snapSession) WritePage(page.PageID, []byte) error { return ErrSnapshotReadOnly }

// Allocate implements Server: snapshots are read-only.
func (c *snapSession) Allocate(uint16, []byte) (oid.OID, storage.PAddr, error) {
	return oid.Nil, storage.PAddr{}, ErrSnapshotReadOnly
}

// AllocateNear implements Server: snapshots are read-only.
func (c *snapSession) AllocateNear(uint16, oid.OID, []byte) (oid.OID, storage.PAddr, error) {
	return oid.Nil, storage.PAddr{}, ErrSnapshotReadOnly
}

// UpdateObject implements Server: snapshots are read-only.
func (c *snapSession) UpdateObject(oid.OID, []byte) (storage.PAddr, error) {
	return storage.PAddr{}, ErrSnapshotReadOnly
}

// NumPages implements Server. Segments only grow; pages past the
// snapshot point hold no slot a versioned Lookup can reach.
func (c *snapSession) NumPages(seg uint16) (int, error) {
	if err := c.err(); err != nil {
		return 0, err
	}
	return c.srv.mgr.Disk().NumPages(seg)
}

// LookupBatch implements BatchLookuper: the live batch resolution with
// the snapshot's POT overlay applied per entry.
func (c *snapSession) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	if err := c.err(); err != nil {
		return nil, nil, err
	}
	addrs, ok := c.srv.mgr.LookupBatch(ids)
	vs := c.srv.mgr.Versions()
	for i, id := range ids {
		if a, present, hit := vs.Lookup(c.readLSN, id); hit {
			addrs[i], ok[i] = a, present
		}
	}
	return addrs, ok, nil
}

// ReadPages implements PageRunReader without locks: each page of the run
// is resolved through the version store independently — exactly as
// consistent as the equivalent sequence of snapshot ReadPage calls.
func (c *snapSession) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	imgs, _, err := c.readPagesDir(pid, n)
	return imgs, err
}

func (c *snapSession) readPagesDir(pid page.PageID, n int) ([][]byte, []page.Directory, error) {
	if err := c.err(); err != nil {
		return nil, nil, err
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("server: read run of %d pages", n)
	}
	total, err := c.srv.mgr.Disk().NumPages(pid.Segment())
	if err != nil {
		return nil, nil, err
	}
	if pid.No() >= uint64(total) {
		return nil, nil, fmt.Errorf("%w: %v", storage.ErrNoPage, pid)
	}
	if rest := uint64(total) - pid.No(); uint64(n) > rest {
		n = int(rest)
	}
	imgs := make([][]byte, n)
	dirs := make([]page.Directory, n)
	for i := range imgs {
		if imgs[i], dirs[i], err = c.readPageDir(page.NewPageID(pid.Segment(), pid.No()+uint64(i))); err != nil {
			return nil, nil, err
		}
	}
	return imgs, dirs, nil
}

var (
	_ Server        = (*snapSession)(nil)
	_ BatchLookuper = (*snapSession)(nil)
	_ PageRunReader = (*snapSession)(nil)
	_ dirPageReader = (*snapSession)(nil)
)
