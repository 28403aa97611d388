package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/oid"
	"gom/internal/storage"
)

// waitPendingCommits polls until n commit requests are queued at the
// (held) group committer, fixing the record order inside the batch.
func waitPendingCommits(t *testing.T, w *storage.WAL, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.PendingCommits() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pending commits stuck at %d, want %d", w.PendingCommits(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitBatchCrashPointSweep builds one deterministic four-
// transaction group-commit batch (the writer is held while the commits
// queue), then cuts the log at every byte across the whole batch region —
// every record boundary and every torn byte inside every record of the
// batch. Recovery must surface exactly the transactions whose commit
// record wholly reached disk, in batch order, and nothing else.
func TestGroupCommitBatchCrashPointSweep(t *testing.T) {
	dir := t.TempDir()
	m, w, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	// One segment per transaction: the batch members must reach their
	// commit concurrently, so they must not contend for page locks.
	for seg := uint16(1); seg <= n; seg++ {
		if err := m.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	ts := NewTxServer(m, 2*time.Second)

	txs := make([]TxID, n)
	views := make([]map[oid.OID][]byte, n)
	for i := 0; i < n; i++ {
		txs[i] = ts.Begin()
		rec := []byte(fmt.Sprintf("batch-tx-%d", i+1))
		id, _, err := ts.Session(txs[i]).Allocate(uint16(i+1), rec)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = map[oid.OID][]byte{id: rec}
	}

	preOff := w.Offset()
	w.HoldGroupCommit()
	results := make([]chan error, n)
	for i := 0; i < n; i++ {
		results[i] = make(chan error, 1)
		tx, ch := txs[i], results[i]
		go func() { ch <- ts.Commit(tx) }()
		waitPendingCommits(t, w, i+1)
	}
	w.ReleaseGroupCommit()
	for i, ch := range results {
		if err := <-ch; err != nil {
			t.Fatalf("commit %d in batch: %v", i+1, err)
		}
	}

	// The batch appended exactly n commit records after preOff, in
	// enqueue order; their End offsets are the sweep's commit points.
	logPath := w.Path()
	recs, valid, err := storage.ScanLogFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var commits []commitPoint
	view := map[oid.OID][]byte{}
	for _, r := range recs {
		if r.Kind != storage.RecordCommit || r.End <= preOff {
			continue
		}
		i := len(commits)
		if i >= n || r.Tx != uint64(txs[i]) {
			t.Fatalf("batch record %d commits tx %d, want tx %d (enqueue order)", i, r.Tx, txs[i])
		}
		for id, rec := range views[i] {
			view[id] = rec
		}
		commits = append(commits, commitPoint{off: r.End, view: snapshotView(view)})
	}
	if len(commits) != n {
		t.Fatalf("batch produced %d commit records, want %d", len(commits), n)
	}
	if valid != commits[n-1].off {
		t.Fatalf("log ends at %d, want the batch's last record at %d", valid, commits[n-1].off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Sweep every byte of the batch region: each cut is both a record
	// boundary of some prefix and a torn byte of the next record.
	for cut := preOff; cut <= commits[n-1].off; cut++ {
		checkRecoveredPrefix(t, logPath, cut, commits, fmt.Sprintf("batch cut %d", cut))
	}
}

// commitOutcome is one transaction of the randomized fault workload:
// what it allocated and whether Commit reported durability.
type commitOutcome struct {
	tx   TxID
	objs map[oid.OID][]byte
	ok   bool
}

// TestGroupCommitFaultProperty is the seeded randomized concurrency test:
// N committers run against a group-commit WAL while fsync failures,
// lost fsyncs, writer stalls, and torn batch appends are injected. The
// durable-prefix contract is checked against the log itself: a crash at
// SyncedOffset must recover exactly the reported-committed transactions
// whose commit record lies inside the durable prefix — in particular,
// never a transaction whose commit reported failure. And no transaction
// or lock may leak, whatever the fault did.
func TestGroupCommitFaultProperty(t *testing.T) {
	plans := []struct {
		name string
		arm  func()
	}{
		{"clean", func() {}},
		{"stall", func() {
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALWriterStall, Delay: 5 * time.Millisecond, Times: 3})
		}},
		{"lost-fsync", func() {
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true, After: 2, Times: 2})
		}},
		{"fsync-error", func() {
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, After: 3, Times: 1})
		}},
		{"torn-batch", func() {
			faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchAppend, TornWrite: true, TornAt: 20, After: 3, Times: 1})
		}},
	}
	for _, plan := range plans {
		for _, seed := range []int64{7, 20260809} {
			t.Run(fmt.Sprintf("%s/seed=%d", plan.name, seed), func(t *testing.T) {
				defer faultpoint.Reset()
				runGroupCommitFaultRound(t, seed, plan.arm)
			})
		}
	}
}

func runGroupCommitFaultRound(t *testing.T, seed int64, arm func()) {
	dir := t.TempDir()
	m, w, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const txPerWorker = 6
	for seg := uint16(1); seg <= workers; seg++ {
		if err := m.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	ts := NewTxServer(m, 2*time.Second)
	arm()

	var mu sync.Mutex
	var outcomes []commitOutcome
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(wk)))
			seg := uint16(wk + 1)
			for i := 0; i < txPerWorker; i++ {
				tx := ts.Begin()
				sess := ts.Session(tx)
				objs := map[oid.OID][]byte{}
				broken := false
				for j := rng.Intn(3) + 1; j > 0; j-- {
					rec := []byte(fmt.Sprintf("w%d-tx%d-obj%d-seed%d", wk, i, j, seed))
					id, _, err := sess.Allocate(seg, rec)
					if errors.Is(err, storage.ErrWALBroken) {
						// A poisoned WAL rejects all further redo appends
						// until recovery; the transaction can only abort.
						broken = true
						break
					}
					if err != nil {
						t.Errorf("worker %d allocate: %v", wk, err)
						_ = ts.Abort(tx)
						return
					}
					objs[id] = rec
				}
				if broken {
					if aerr := ts.Abort(tx); aerr != nil {
						t.Errorf("worker %d: abort on poisoned WAL: %v", wk, aerr)
					}
					mu.Lock()
					outcomes = append(outcomes, commitOutcome{tx: tx, ok: false})
					mu.Unlock()
					continue
				}
				err := ts.Commit(tx)
				if err != nil {
					// The transaction must still be alive and undoable.
					if !ts.Alive(tx) {
						t.Errorf("worker %d: failed commit killed tx %d", wk, tx)
					}
					if aerr := ts.Abort(tx); aerr != nil {
						t.Errorf("worker %d: abort after failed commit: %v", wk, aerr)
					}
				}
				mu.Lock()
				outcomes = append(outcomes, commitOutcome{tx: tx, objs: objs, ok: err == nil})
				mu.Unlock()
			}
		}(wk)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	faultpoint.Reset()

	// No transaction or lock may leak, whatever the faults did.
	ts.mu.Lock()
	nLocks, nTxs := len(ts.locks), len(ts.txs)
	ts.mu.Unlock()
	if nLocks != 0 || nTxs != 0 {
		t.Fatalf("after workload: %d locks, %d transactions leaked", nLocks, nTxs)
	}

	cut := w.SyncedOffset()
	logPath := w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The log's own record structure decides which commits are inside
	// the durable prefix.
	recs, _, err := storage.ScanLogFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	commitEnd := map[uint64]int64{}
	for _, r := range recs {
		if r.Kind == storage.RecordCommit {
			commitEnd[r.Tx] = r.End
		}
	}

	durable := map[TxID]commitOutcome{}
	for _, o := range outcomes {
		end, logged := commitEnd[uint64(o.tx)]
		if o.ok && !logged {
			t.Fatalf("tx %d reported durable but has no commit record", o.tx)
		}
		if !o.ok && logged && end <= cut {
			t.Fatalf("tx %d reported failed but its commit record is inside the durable prefix (end %d ≤ cut %d)", o.tx, end, cut)
		}
		if o.ok && logged && end <= cut {
			durable[o.tx] = o
		}
	}

	// Crash at the durable prefix and recover: exactly the durable
	// transactions' objects, with their committed bytes.
	crashDir := cutLogDir(t, logPath, cut)
	m2, w2, info, err := storage.RecoverManager(crashDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != len(durable) {
		t.Fatalf("recovery committed %d transactions, want %d (info: %v)", info.Committed, len(durable), info)
	}
	if err := m2.VerifyDirectories(); err != nil {
		t.Fatalf("page directories after recovery: %v", err)
	}
	wantObjects := 0
	for _, o := range durable {
		wantObjects += len(o.objs)
		for id, rec := range o.objs {
			got, _, err := m2.Read(id)
			if err != nil {
				t.Fatalf("durable tx %d object %v lost: %v", o.tx, id, err)
			}
			if !bytes.Equal(got, rec) {
				t.Fatalf("object %v recovered as %q, committed %q", id, got, rec)
			}
		}
	}
	if got := m2.POT().Len(); got != wantObjects {
		t.Fatalf("recovered %d objects, want %d", got, wantObjects)
	}
}

// TestTCPCommitOrdering runs concurrent TCP sessions that all update the
// same object (hence contend for the same page's X lock) and checks the
// log afterwards: under strict 2PL with locks released only after
// durability, each transaction's record span — first redo record through
// commit record — must lie entirely after the commit record of every
// transaction it waited on. No transaction becomes durable before one
// whose lock it needed.
func TestTCPCommitOrdering(t *testing.T) {
	dir := t.TempDir()
	m, w, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	ts := NewTxServer(m, 5*time.Second)

	// The shared object all sessions fight over (committed up front).
	setup := ts.Begin()
	shared, _, err := ts.Session(setup).Allocate(1, []byte("????????"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	defer srv.Close()

	const workers = 4
	const rounds = 5
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("worker %d dial: %v", wk, err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				if _, err := c.BeginTx(); err != nil {
					t.Errorf("worker %d begin: %v", wk, err)
					return
				}
				rec := []byte(fmt.Sprintf("w%dr%03d", wk, i)) // 8 bytes: in place
				if _, err := c.UpdateObject(shared, rec); err != nil {
					t.Errorf("worker %d update: %v", wk, err)
					_ = c.AbortTx()
					return
				}
				if err := c.CommitTx(); err != nil {
					t.Errorf("worker %d commit: %v", wk, err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	logPath := w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := storage.ScanLogFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		first, commit int64
	}
	spans := map[uint64]*span{}
	for _, r := range recs {
		if r.Tx == 0 {
			continue // system records
		}
		s := spans[r.Tx]
		if s == nil {
			s = &span{first: r.End}
			spans[r.Tx] = s
		}
		if r.Kind == storage.RecordCommit {
			s.commit = r.End
		}
	}
	committed := make([]*span, 0, len(spans))
	for tx, s := range spans {
		if s.commit == 0 {
			t.Fatalf("tx %d has records but no commit marker", tx)
		}
		committed = append(committed, s)
	}
	if len(committed) != workers*rounds+1 {
		t.Fatalf("log holds %d committed transactions, want %d", len(committed), workers*rounds+1)
	}
	// Every pair contended for the same page, so their spans must be
	// totally ordered: one's commit record precedes the other's first
	// redo record.
	for i, a := range committed {
		for _, b := range committed[i+1:] {
			if a.commit <= b.first || b.commit <= a.first {
				continue
			}
			t.Fatalf("transaction spans interleave: [%d,%d] vs [%d,%d] — a tx became durable before one it waited on",
				a.first, a.commit, b.first, b.commit)
		}
	}
}
