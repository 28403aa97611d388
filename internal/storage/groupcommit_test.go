package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
)

// waitPending polls until n commits are queued or being flushed — with
// the group commit held, the deterministic way to build a batch with a
// known record order.
func waitPending(t *testing.T, w *WAL, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending commits stuck at %d, want %d", w.PendingCommits(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// holdBatch queues txs 1..n behind a held group commit and returns
// a function that releases the batch and collects the per-commit results
// (FIFO enqueue order = record order in the batch).
func holdBatch(t *testing.T, w *WAL, n int) func() []error {
	t.Helper()
	w.HoldGroupCommit()
	errsCh := make([]chan error, n)
	for i := 0; i < n; i++ {
		errsCh[i] = make(chan error, 1)
		tx, ch := uint64(i+1), errsCh[i]
		go func() { ch <- w.CommitDurable(tx) }()
		waitPending(t, w, i+1)
	}
	return func() []error {
		w.ReleaseGroupCommit()
		out := make([]error, n)
		for i, ch := range errsCh {
			out[i] = <-ch
		}
		return out
	}
}

// TestGroupCommitBatchesOneFsync holds group commit, queues five commits,
// releases, and asserts the batch became one append+fsync carrying five
// commit records in enqueue order.
func TestGroupCommitBatchesOneFsync(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	const n = 5
	preOff := w.Offset()
	preFsync := reg.Count(metrics.CtrWALFsync)
	release := holdBatch(t, w, n)
	if got := w.Offset(); got != preOff {
		t.Fatalf("held batch already appended: offset %d, want %d", got, preOff)
	}
	for i, err := range release() {
		if err != nil {
			t.Fatalf("commit %d in batch: %v", i+1, err)
		}
	}

	if got := reg.Count(metrics.CtrWALFsync) - preFsync; got != 1 {
		t.Fatalf("batch of %d commits took %d fsyncs, want 1", n, got)
	}
	if got := reg.Count(metrics.CtrWALGroupBatch); got != 1 {
		t.Fatalf("wal_group_batch = %d, want 1", got)
	}
	if got := reg.Count(metrics.CtrWALCommit); got != n {
		t.Fatalf("wal_commit = %d, want %d", got, n)
	}
	hs := reg.HistSnapshotOf(metrics.HistWALBatchSize)
	if hs.Count != 1 || hs.SumNS != n {
		t.Fatalf("batch-size histogram = count %d sum %d, want one observation of %d", hs.Count, hs.SumNS, n)
	}
	if w.SyncedOffset() != w.Offset() {
		t.Fatalf("synced %d != offset %d after batch fsync", w.SyncedOffset(), w.Offset())
	}

	recs, _, err := ScanLogFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("log holds %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Kind != RecordCommit || r.Tx != uint64(i+1) {
			t.Fatalf("record %d = kind %d tx %d, want commit of tx %d (FIFO order)", i, r.Kind, r.Tx, i+1)
		}
	}
}

// TestGroupCommitNaturalBatchingUnderStall arms a writer stall so commits
// arriving during the stall coalesce: 32 concurrent committers must need
// far fewer than 32 fsyncs. The start barrier makes the committers truly
// concurrent — without it a scheduling hiccup can split the burst, and
// commits that genuinely arrive one at a time are entitled to one fsync
// each; that is not what this test is about. The stall covers the first
// leaders, and everyone else piles into the next batch while they sleep:
// by the time either 20ms stall ends every remaining committer has
// queued.
func TestGroupCommitNaturalBatchingUnderStall(t *testing.T) {
	defer faultpoint.Reset()
	w, err := CreateWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := metrics.New()
	w.SetMetrics(reg)

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALWriterStall, Delay: 20 * time.Millisecond, Times: 2})
	const n = 32
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ready.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			<-start
			errs[i] = w.CommitDurable(uint64(i + 1))
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	if got := reg.Count(metrics.CtrWALFsync); got >= n/2 {
		t.Fatalf("%d commits under a stalled writer took %d fsyncs, want batching (< %d)", n, got, n/2)
	}
	recs, _, err := ScanLogFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("log holds %d commit records, want %d", len(recs), n)
	}
}

// TestGroupCommitBatchTornWriteSweep tears the batch append at every byte
// offset of a three-commit batch: every commit in the batch must report
// failure, the WAL must be poisoned, and — because poisoning truncates
// the unsynced tail — the file must hold none of the batch's records:
// every commit was reported failed, so not even the records wholly
// written before the tear may survive for recovery to replay.
func TestGroupCommitBatchTornWriteSweep(t *testing.T) {
	defer faultpoint.Reset()
	const n = 3
	const frameLen = 8 + 9 // walFrameHdr + commit payload
	for tornAt := 0; tornAt < n*frameLen; tornAt++ {
		t.Run(fmt.Sprintf("torn=%d", tornAt), func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			w, err := CreateWAL(dir)
			if err != nil {
				t.Fatal(err)
			}
			release := holdBatch(t, w, n)
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchAppend, TornWrite: true, TornAt: tornAt, Times: 1})
			for i, err := range release() {
				if err == nil {
					t.Fatalf("commit %d reported durable through a torn batch append", i+1)
				}
			}
			if err := w.CommitDurable(99); !errors.Is(err, ErrWALBroken) {
				t.Fatalf("commit after torn batch = %v, want ErrWALBroken", err)
			}
			path := w.Path()
			w.Close()

			// Poisoning truncated the unsynced tail: no record of the
			// failed batch — whole or partial — remains in the file.
			recs, _, err := ScanLogFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 0 {
				t.Fatalf("torn at %d: %d records of a failed batch survive in the file", tornAt, len(recs))
			}
			m, w2, info, err := RecoverManager(dir, 1)
			if err != nil {
				t.Fatalf("torn at %d: recovery refused the image: %v", tornAt, err)
			}
			w2.Close()
			_ = m
			if info.TornBytes != 0 {
				t.Fatalf("torn at %d: recovery saw %d torn bytes, want a clean (pre-truncated) log", tornAt, info.TornBytes)
			}
		})
	}
}

// TestGroupCommitSyncFailurePoisons: when the batch fsync *fails*, every
// commit in the batch fails and the WAL is poisoned — the commit records
// already in the file must never be resurrected by a later successful
// sync, and a crash image cut at the durable prefix holds none of them.
func TestGroupCommitSyncFailurePoisons(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	syncedAt := w.SyncedOffset()

	const n = 4
	release := holdBatch(t, w, n)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Times: 1})
	for i, err := range release() {
		if err == nil {
			t.Fatalf("commit %d reported durable through a failed fsync", i+1)
		}
	}
	if w.SyncedOffset() != syncedAt {
		t.Fatalf("durable prefix advanced across a failed fsync: %d != %d", w.SyncedOffset(), syncedAt)
	}
	// Poisoned: no later append or sync may quietly make the batch durable.
	if err := w.CommitDurable(99); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("commit after failed batch fsync = %v, want ErrWALBroken", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("Sync after failed batch fsync = %v, want ErrWALBroken", err)
	}
	path := w.Path()
	w.Close()

	// Crash at the durable prefix: none of the failed batch survives.
	if err := os.Truncate(path, syncedAt); err != nil {
		t.Fatal(err)
	}
	_, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 0 {
		t.Fatalf("failed batch resurrected: %d committed transactions recovered", info.Committed)
	}
}

// TestGroupCommitLostFsyncLosesBatch: a *skipped* batch fsync (the device
// lied) reports success, matching Sync's lost-fsync contract —
// and a crash at the durable prefix then loses the whole batch at once.
func TestGroupCommitLostFsyncLosesBatch(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	syncedAt := w.SyncedOffset()

	const n = 3
	release := holdBatch(t, w, n)
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Times: 1})
	for i, err := range release() {
		if err != nil {
			t.Fatalf("commit %d with lost fsync must report success: %v", i+1, err)
		}
	}
	if w.SyncedOffset() != syncedAt {
		t.Fatalf("durable prefix advanced despite lost fsync: %d != %d", w.SyncedOffset(), syncedAt)
	}
	// The WAL is healthy (the failure is silent); a later commit's fsync
	// makes everything durable, batch included.
	if err := w.CommitDurable(99); err != nil {
		t.Fatal(err)
	}
	if w.SyncedOffset() != w.Offset() {
		t.Fatalf("later fsync did not cover the log: synced %d, offset %d", w.SyncedOffset(), w.Offset())
	}
	path := w.Path()
	w.Close()

	// But had the crash come first, the whole batch would be gone.
	if err := os.Truncate(path, syncedAt); err != nil {
		t.Fatal(err)
	}
	_, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 0 {
		t.Fatalf("lost-fsync batch survived the crash: %d committed", info.Committed)
	}
}

// waitOffsetPast polls until the log's logical end moves past off — the
// sign that a concurrent committer's append has landed and it is now in
// (or headed into) its fsync.
func waitOffsetPast(t *testing.T, w *WAL, off int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.Offset() <= off {
		if time.Now().After(deadline) {
			t.Fatalf("log end stuck at %d", w.Offset())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitFailedFsyncCoveredByConcurrentSync: batch A's fsync
// stalls and then fails, but while it is on the device a record is
// appended after A's records and WAL.Sync fsyncs successfully. fsync
// covers the whole file, so that sync made A's commit record durable
// before A's own failed verdict arrived — A must report success (failing
// it would be the resurrection bug in reverse: a transaction reported
// failed whose commit record recovery replays), the WAL stays healthy,
// and recovery sees A committed.
func TestGroupCommitFailedFsyncCoveredByConcurrentSync(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := w.Offset()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Delay: 100 * time.Millisecond, Times: 1})
	aErr := make(chan error, 1)
	go func() { aErr <- w.CommitDurable(1) }()
	waitOffsetPast(t, w, start)

	// A's record is in the file and A is stalled in its doomed fsync; a
	// record lands after it and Sync fsyncs the whole log — A's record
	// included.
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("concurrent sync: %v", err)
	}
	if err := <-aErr; err != nil {
		t.Fatalf("batch covered by a concurrent successful fsync must report success, got %v", err)
	}
	if w.SyncedOffset() != w.Offset() {
		t.Fatalf("durable prefix %d does not cover the log end %d", w.SyncedOffset(), w.Offset())
	}
	w.Close()

	_, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 1 {
		t.Fatalf("recovered %d committed transactions, want 1", info.Committed)
	}
}

// TestGroupCommitPoisonedWhileFsyncInFlight: batch A's fsync is in flight
// (and will report success — a skip fault stands in for it) when a
// concurrent WAL.Sync fails, poisoning the WAL and truncating the
// unsynced tail — A's commit record included. A must report ErrWALBroken despite
// its own fsync verdict: its records are no longer in the file, so
// reporting success would claim durability for bytes recovery will never
// see.
func TestGroupCommitPoisonedWhileFsyncInFlight(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := w.Offset()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Delay: 100 * time.Millisecond, Times: 1})
	aErr := make(chan error, 1)
	go func() { aErr <- w.CommitDurable(1) }()
	waitOffsetPast(t, w, start)

	// While A stalls, a Sync fails: the WAL is poisoned and the unsynced
	// tail — A's record and the one after it — is truncated.
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALSync, Times: 1})
	if err := w.Sync(); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("Sync under a failing fsync = %v, want injected error", err)
	}
	if err := <-aErr; !errors.Is(err, ErrWALBroken) {
		t.Fatalf("batch whose records were truncated mid-fsync = %v, want ErrWALBroken", err)
	}
	if w.Offset() != start || w.SyncedOffset() != start {
		t.Fatalf("poisoned tail not truncated: off %d synced %d, want %d", w.Offset(), w.SyncedOffset(), start)
	}
	path := w.Path()
	w.Close()

	recs, _, err := ScanLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records of failed commits survive in the truncated log", len(recs))
	}
}

// TestWALCloseDrainsQueuedCommits: Close makes a commit that queued behind
// an in-flight flush durable instead of failing it. A's flush stalls in
// its fsync; B queues behind it; Close must wait for both flushes — A's
// and the one B leads — before it closes the file.
func TestWALCloseDrainsQueuedCommits(t *testing.T) {
	defer faultpoint.Reset()
	w, err := CreateWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := w.Offset()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, Delay: 100 * time.Millisecond, Times: 1})
	aErr, bErr := make(chan error, 1), make(chan error, 1)
	go func() { aErr <- w.CommitDurable(1) }()
	waitOffsetPast(t, w, start)
	pending := w.PendingCommits()
	go func() { bErr <- w.CommitDurable(2) }()
	waitPending(t, w, pending+1)
	path := w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if err := <-aErr; err != nil {
		t.Fatalf("commit in flight at Close: %v", err)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("commit queued at Close: %v", err)
	}
	recs, _, err := ScanLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Tx != 1 || recs[1].Tx != 2 {
		t.Fatalf("log holds %+v, want the commit records of tx 1 and tx 2", recs)
	}
}
