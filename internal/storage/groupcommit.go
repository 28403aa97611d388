package storage

import (
	"sync"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
)

// Group commit (DESIGN.md "Durability"), leader/follower style: a
// committer appends its transaction to a mutex-guarded queue; if no flush
// is in progress (and no test hold is set) it becomes the leader, takes
// the whole queue and makes it durable with one append and one fsync,
// then wakes the followers with the shared result. Commits that queue while a flush is on the device wait for it,
// and one of them leads the next batch — so the fsync duration itself
// gates batch growth, and a lone committer pays exactly one append+fsync
// on its own stack.
//
// On top of that natural batching the leader waits for its cohort: when
// the previous batch carried more than one commit, it waits until that
// many commits are queued, at most half the EWMA flush cost (capped at
// 1ms). That absorbs the arrival spread of the committers that woke from
// the last batch and are racing through their next transaction; without
// it concurrent committers split into ever smaller batches.
//
// Failure semantics: when the batch's append or fsync fails, every
// transaction in the batch gets the error, none is reported durable, and
// the WAL is poisoned (ErrWALBroken) until recovery — commit records
// already in the file must not be resurrected by a later successful fsync
// after their commits were reported failed.

// GroupCommitOptions is kept, empty, for callers of EnableGroupCommit;
// group commit has no settings.
type GroupCommitOptions struct{}

const (
	maxCohortWait = time.Millisecond
	// commitQueueCap is the queue depth the commit_queue health check
	// judges against; the queue itself is unbounded.
	commitQueueCap = 1024
)

// CommitPhases is one durable commit's flight record: where its time
// went, stage by stage. Timestamps are Unix nanoseconds so the server
// can re-emit the stages as retroactive trace spans; the durations are
// what the wal_phase_* histograms observe. The batch-shared stages
// (linger, append, fsync, publish) carry the whole batch's timing,
// identical for every member; enqueue wait is the member's own.
type CommitPhases struct {
	EnqueuedAt    int64 // when the commit entered the queue
	EnqueueWaitNS int64 // queued until its batch's flush began
	LingerNS      int64 // the leader's writer stall plus its cohort wait
	AppendAt      int64
	AppendNS      int64 // WAL lock + frame build + buffered write
	FsyncAt       int64
	FsyncNS       int64 // the batch's shared fsync
	PublishAt     int64
	PublishNS     int64 // version-store publish (the commit hook)
	BatchSize     int
}

// commitReq is one transaction waiting for its commit record to be
// durable; the leader fills phases and err and sets done.
type commitReq struct {
	tx      uint64
	traceID uint64 // exemplar candidate for the batch's histograms
	enq     time.Time
	done    bool
	phases  CommitPhases
	err     error
}

// groupCommit is the WAL's commit queue. Every field is guarded by mu.
type groupCommit struct {
	mu       sync.Mutex
	wake     sync.Cond // a flush finished or the hold was released; followers and Close wait on it
	arrived  sync.Cond // a commit queued, or the cohort wait's deadline passed
	queue    []*commitReq
	spare    []*commitReq // the previous batch's backing array, reused
	flushing bool         // a leader owns the log until it clears this
	hold     bool         // test hook: nobody leads while set
	pending  int          // commits queued or in the flush in progress

	// Heartbeat for the health watchdog (GroupCommitStatus): beat is the
	// Unix-ns time the last flush finished; busySince is nonzero while a
	// leader owns the log, set before the WALWriterStall faultpoint so an
	// injected stall reads as one overlong flush.
	beat      int64
	busySince int64

	avgFlushNS int64 // EWMA of the flush duration
	lastBatch  int   // size of the previous batch
}

// init ties both condition variables to mu; newWAL calls it.
func (g *groupCommit) init() {
	g.wake.L = &g.mu
	g.arrived.L = &g.mu
}

// EnableGroupCommit does nothing: every WAL group-commits, and group
// commit has no settings.
func (w *WAL) EnableGroupCommit(GroupCommitOptions) {}

// CommitDurable makes tx's commit record durable. Commits arriving while
// a flush is in progress coalesce into the next batch and share its
// fsync.
func (w *WAL) CommitDurable(tx uint64) error {
	_, err := w.CommitDurablePhases(tx, 0)
	return err
}

// CommitDurablePhases is CommitDurable with the flight record: it
// returns where the commit's time went, stage by stage, and stamps the
// phase histograms' exemplars with traceID when nonzero.
func (w *WAL) CommitDurablePhases(tx uint64, traceID uint64) (CommitPhases, error) {
	g := &w.group
	r := &commitReq{tx: tx, traceID: traceID, enq: time.Now()}
	g.mu.Lock()
	g.queue = append(g.queue, r)
	g.pending++
	g.arrived.Signal()
	for !r.done {
		if !g.flushing && !g.hold {
			w.lead()
			continue
		}
		g.wake.Wait()
	}
	g.mu.Unlock()
	return r.phases, r.err
}

// lead makes the queue durable as one batch — one append, one fsync, one
// commit-hook publish — and fills every member's result with the shared
// outcome plus its own flight record. Called, and returns, with g.mu
// held; the caller's own request is in the queue.
func (w *WAL) lead() {
	g := &w.group
	g.flushing = true
	lingerStart := time.Now()
	g.busySince = lingerStart.UnixNano()
	g.mu.Unlock()
	// A stall here models a slow or descheduled log writer: commits keep
	// queueing behind the leader and pile into one large batch.
	_ = faultpoint.Check(faultpoint.WALWriterStall)
	g.mu.Lock()
	if cohort := g.lastBatch; cohort > 1 && len(g.queue) < cohort {
		if wait := min(time.Duration(g.avgFlushNS/2), maxCohortWait); wait > 0 {
			expired := false
			t := time.AfterFunc(wait, func() {
				g.mu.Lock()
				expired = true
				g.arrived.Signal()
				g.mu.Unlock()
			})
			for !expired && len(g.queue) < cohort {
				g.arrived.Wait()
			}
			t.Stop()
		}
	}
	batch := g.queue
	g.queue, g.spare = g.spare[:0], nil
	g.mu.Unlock()

	txs := make([]uint64, len(batch))
	exemplar := uint64(0)
	for i, r := range batch {
		txs[i] = r.tx
		if exemplar == 0 {
			exemplar = r.traceID
		}
	}
	start := time.Now()
	ph := CommitPhases{LingerNS: start.Sub(lingerStart).Nanoseconds()}
	err := w.appendCommitBatch(txs, &ph, exemplar)
	dur := time.Since(start).Nanoseconds()
	obs := w.Metrics()
	if err == nil {
		obs.ObserveHistTrace(metrics.HistPhaseLinger, ph.LingerNS, exemplar)
	}

	g.mu.Lock()
	for _, r := range batch {
		r.phases, r.err, r.done = ph, err, true
		r.phases.EnqueuedAt = r.enq.UnixNano()
		// A member's enqueue wait is its own queued time, up to the
		// flush start; the leader's includes the linger.
		if wait := start.Sub(r.enq).Nanoseconds(); wait > 0 {
			r.phases.EnqueueWaitNS = wait
		}
		if err == nil {
			obs.ObserveHistTrace(metrics.HistPhaseEnqueueWait, r.phases.EnqueueWaitNS, r.traceID)
		}
	}
	// EWMA with alpha 1/4 sizes the next cohort wait.
	g.avgFlushNS += (dur - g.avgFlushNS) / 4
	g.lastBatch = len(batch)
	g.pending -= len(batch)
	clear(batch)
	g.spare = batch[:0]
	g.flushing = false
	g.beat = time.Now().UnixNano()
	g.busySince = 0
	g.wake.Broadcast()
}

// GroupCommitStatus is a point-in-time view of the commit queue,
// consumed by the health watchdog: a flush in progress for much longer
// than a flush should take, or commits pending with no flush finished
// recently, is a stall.
type GroupCommitStatus struct {
	Pending   int       // commits queued or being flushed
	QueueCap  int       // the depth commit_queue health judges against
	LastBeat  time.Time // end of the last flush (zero: never)
	BusySince time.Time // start of the in-progress flush (zero: idle)
}

// GroupCommitStatus reports the commit queue's heartbeat state.
func (w *WAL) GroupCommitStatus() GroupCommitStatus {
	g := &w.group
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GroupCommitStatus{Pending: g.pending, QueueCap: commitQueueCap}
	if g.beat != 0 {
		st.LastBeat = time.Unix(0, g.beat)
	}
	if g.busySince != 0 {
		st.BusySince = time.Unix(0, g.busySince)
	}
	return st
}

// HoldGroupCommit stops new flushes from starting (test hook): commits
// accumulate into one batch until ReleaseGroupCommit, giving crash tests
// a deterministic multi-transaction batch.
func (w *WAL) HoldGroupCommit() {
	w.group.mu.Lock()
	w.group.hold = true
	w.group.mu.Unlock()
}

// ReleaseGroupCommit lets one of the held commits lead the accumulated
// batch.
func (w *WAL) ReleaseGroupCommit() {
	g := &w.group
	g.mu.Lock()
	g.hold = false
	g.wake.Broadcast()
	g.mu.Unlock()
}

// PendingCommits returns how many commits are queued or being flushed —
// a test hook for building deterministic batches (the queue is FIFO, so
// polling PendingCommits between commits fixes the record order inside
// the batch).
func (w *WAL) PendingCommits() int {
	w.group.mu.Lock()
	defer w.group.mu.Unlock()
	return w.group.pending
}
