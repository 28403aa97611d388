package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gom/internal/faultpoint"
	"gom/internal/oid"
	"gom/internal/page"
)

// walTestPage builds a legal slotted page image holding the given records
// and returns the image plus the slot of each record.
func walTestPage(t *testing.T, pid page.PageID, recs ...[]byte) ([]byte, []uint16) {
	t.Helper()
	p := page.New(pid)
	slots := make([]uint16, len(recs))
	for i, rec := range recs {
		s, err := p.Insert(rec)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		slots[i] = uint16(s)
	}
	return p.CloneImage(), slots
}

// appendCommittedObject logs one committed single-object transaction: the
// segment grows to one page, the page holds rec, the POT maps id to it.
func appendCommittedObject(t *testing.T, w *WAL, tx uint64, id oid.OID, rec []byte) PAddr {
	t.Helper()
	pid := page.NewPageID(1, 0)
	img, slots := walTestPage(t, pid, rec)
	addr := PAddr{Page: pid, Slot: slots[0]}
	if err := w.AppendEnsurePages(1, 1); err != nil {
		t.Fatalf("ensure pages: %v", err)
	}
	if err := w.AppendPageImage(tx, pid, img); err != nil {
		t.Fatalf("page image: %v", err)
	}
	if err := w.AppendPotPut(tx, id, addr); err != nil {
		t.Fatalf("pot put: %v", err)
	}
	if err := w.CommitDurable(tx); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return addr
}

// allocAndLog allocates rec through the manager (mutating live state, as
// the transaction layer does) and logs the committed redo records for it.
func allocAndLog(t *testing.T, m *Manager, w *WAL, tx uint64, rec []byte) oid.OID {
	t.Helper()
	id, addr, err := m.Allocate(1, rec)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	n, err := m.Disk().NumPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEnsurePages(1, n); err != nil {
		t.Fatal(err)
	}
	img, err := m.Disk().ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPageImage(tx, addr.Page, img); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPotPut(tx, id, addr); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitDurable(tx); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestWALFreshDirIsOpenOrCreate(t *testing.T) {
	dir := t.TempDir()
	m, w, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if info.Records != 0 || info.FromSnapshot {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	if m.WAL() != w {
		t.Fatal("WAL not attached to recovered manager")
	}
	if w.Epoch() != 0 || w.Offset() != walHeaderLen {
		t.Fatalf("epoch=%d off=%d", w.Epoch(), w.Offset())
	}
}

func TestWALCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := CreateWAL(dir); !errors.Is(err, ErrWALExists) {
		t.Fatalf("second CreateWAL: %v", err)
	}
}

func TestWALReplayCommittedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	gen := oid.NewGeneratorAt(1, 1)
	id := gen.Next()
	rec := []byte("durable record")
	addr := appendCommittedObject(t, w, 1, id, rec)
	w.Close()

	m, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 1 || info.TornBytes != 0 {
		t.Fatalf("info: %+v", info)
	}
	got, gotAddr, err := m.Read(id)
	if err != nil {
		t.Fatalf("read replayed object: %v", err)
	}
	if string(got) != string(rec) || gotAddr != addr {
		t.Fatalf("got %q at %v, want %q at %v", got, gotAddr, rec, addr)
	}
	// Replay must bump the OID generator past the replayed serial.
	if m.gen.Peek() <= id.Serial() {
		t.Fatalf("generator at %d, replayed serial %d", m.gen.Peek(), id.Serial())
	}
}

func TestWALUncommittedTransactionDiscarded(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	gen := oid.NewGeneratorAt(1, 1)
	committed, uncommitted, aborted := gen.Next(), gen.Next(), gen.Next()
	appendCommittedObject(t, w, 1, committed, []byte("kept"))

	// tx 2 never commits; tx 3 aborts explicitly.
	pid := page.NewPageID(1, 0)
	if err := w.AppendPotPut(2, uncommitted, PAddr{Page: pid, Slot: 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPotPut(3, aborted, PAddr{Page: pid, Slot: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAbort(3); err != nil {
		t.Fatal(err)
	}
	w.Close()

	m, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 1 || info.Skipped != 2 {
		t.Fatalf("info: %+v", info)
	}
	if _, err := m.Lookup(committed); err != nil {
		t.Fatalf("committed object lost: %v", err)
	}
	for _, id := range []oid.OID{uncommitted, aborted} {
		if _, err := m.Lookup(id); err == nil {
			t.Fatalf("object %v of unfinished transaction survived recovery", id)
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	id := oid.NewGeneratorAt(1, 1).Next()
	appendCommittedObject(t, w, 1, id, []byte("kept"))
	path, valid := w.Path(), w.Offset()
	w.Close()

	// A crash mid-append leaves garbage after the last full record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes != 5 {
		t.Fatalf("torn bytes %d, want 5 (%+v)", info.TornBytes, info)
	}
	if _, _, err := m.Read(id); err != nil {
		t.Fatalf("committed prefix lost: %v", err)
	}
	if w2.Offset() != valid {
		t.Fatalf("offset after truncation %d, want %d", w2.Offset(), valid)
	}
	// The truncated log must accept appends and recover cleanly again.
	id2 := oid.NewGeneratorAt(1, 5).Next()
	appendCommittedObject(t, w2, 7, id2, []byte("after truncation"))
	w2.Close()
	m2, w3, info2, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if info2.TornBytes != 0 || info2.Committed != 2 {
		t.Fatalf("second recovery: %+v", info2)
	}
	if _, _, err := m2.Read(id2); err != nil {
		t.Fatalf("post-truncation commit lost: %v", err)
	}
	_ = m2
}

func TestWALCheckpointRotatesEpochAndPrunes(t *testing.T) {
	dir := t.TempDir()
	m, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSegment(1); err != nil { // WAL-logged via AttachWAL
		t.Fatal(err)
	}
	id1 := allocAndLog(t, m, w, 1, []byte("before checkpoint"))

	if err := w.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if w.Epoch() != 1 {
		t.Fatalf("epoch %d after checkpoint", w.Epoch())
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000000000000.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old log not pruned: %v", err)
	}

	// Post-checkpoint work lands in the new epoch's log.
	id2 := allocAndLog(t, m, w, 9, []byte("after checkpoint"))
	w.Close()

	m2, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !info.FromSnapshot || info.Epoch != 1 {
		t.Fatalf("info: %+v", info)
	}
	for id, want := range map[oid.OID]string{id1: "before checkpoint", id2: "after checkpoint"} {
		got, _, err := m2.Read(id)
		if err != nil {
			t.Fatalf("read %v: %v", id, err)
		}
		if string(got) != want {
			t.Fatalf("object %v: got %q want %q", id, got, want)
		}
	}
}

func TestWALRecoverAfterCrashBetweenSnapshotAndFreshLog(t *testing.T) {
	dir := t.TempDir()
	m, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	id := allocAndLog(t, m, w, 1, []byte("survives"))
	if err := w.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Crash window: the snapshot was renamed into place but the fresh log
	// never hit the disk.
	if err := os.Remove(filepath.Join(dir, "wal-0000000000000001.log")); err != nil {
		t.Fatal(err)
	}
	m2, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !info.FromSnapshot || info.Records != 0 {
		t.Fatalf("info: %+v", info)
	}
	if got, _, err := m2.Read(id); err != nil || string(got) != "survives" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestWALRecoverRemovesStrandedCheckpointStaging(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	tmp := filepath.Join(dir, snapTmp)
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, w2, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("staging file survived recovery: %v", err)
	}
}

func TestWALTornAppendPoisonsLog(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	id := oid.NewGeneratorAt(1, 1).Next()
	appendCommittedObject(t, w, 1, id, []byte("kept"))

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALAppend, TornWrite: true, TornAt: 3, Times: 1})
	if err := w.AppendPotDelete(2, id); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("torn append: %v", err)
	}
	// Poisoned: the WAL refuses to commit, and the torn bytes were
	// truncated away with the rest of the unsynced tail.
	if err := w.CommitDurable(2); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("commit on broken WAL: %v", err)
	}
	w.Close()

	m, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.TornBytes != 0 {
		t.Fatalf("torn bytes %d, want 0 (poisoning truncates the tail)", info.TornBytes)
	}
	if _, _, err := m.Read(id); err != nil {
		t.Fatalf("committed prefix lost: %v", err)
	}
}

func TestWALLostFsyncLosesTail(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	gen := oid.NewGeneratorAt(1, 1)
	durable := gen.Next()
	appendCommittedObject(t, w, 1, durable, []byte("synced"))
	syncedAt := w.SyncedOffset()

	// The second commit's fsync is silently lost: the append reports
	// success but the durable prefix stays behind.
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Skip: true})
	lost := gen.Next()
	if err := w.AppendPotPut(2, lost, PAddr{Page: page.NewPageID(1, 0), Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitDurable(2); err != nil {
		t.Fatalf("commit with lost fsync must report success: %v", err)
	}
	if w.SyncedOffset() != syncedAt {
		t.Fatalf("durable prefix advanced despite lost fsync: %d != %d", w.SyncedOffset(), syncedAt)
	}
	path := w.Path()
	w.Close()
	faultpoint.Reset()

	// Crash: everything past the durable prefix vanishes.
	if err := os.Truncate(path, syncedAt); err != nil {
		t.Fatal(err)
	}
	m, w2, info, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Committed != 1 {
		t.Fatalf("info: %+v", info)
	}
	if _, err := m.Lookup(durable); err != nil {
		t.Fatalf("synced commit lost: %v", err)
	}
	if _, err := m.Lookup(lost); err == nil {
		t.Fatal("unsynced commit survived the crash")
	}
}

func TestWALScanStopsAtFirstBadCRC(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(2); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(3); err != nil {
		t.Fatal(err)
	}
	path := w.Path()
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, _ := scanWAL(data)
	if len(recs) != 3 {
		t.Fatalf("scanned %d records, want 3", len(recs))
	}
	// Flip a payload byte of the second record: the scan must keep record
	// one and stop, even though record three is intact.
	corrupt := append([]byte(nil), data...)
	corrupt[recs[0].end+walFrameHdr+1] ^= 0xff
	_, recs2, valid, reason := scanWAL(corrupt)
	if len(recs2) != 1 || valid != recs[0].end || reason == "" {
		t.Fatalf("after bit flip: %d records, valid=%d, reason=%q", len(recs2), valid, reason)
	}
}

func TestWALRecordBoundaries(t *testing.T) {
	dir := t.TempDir()
	_, w, _, err := RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSegCreate(1); err != nil {
		t.Fatal(err)
	}
	id := oid.NewGeneratorAt(1, 1).Next()
	appendCommittedObject(t, w, 1, id, []byte("x"))
	path, end := w.Path(), w.Offset()
	w.Close()

	bounds, err := WALRecordBoundaries(path)
	if err != nil {
		t.Fatal(err)
	}
	if bounds[0] != walHeaderLen || bounds[len(bounds)-1] != end {
		t.Fatalf("bounds %v, want first %d last %d", bounds, walHeaderLen, end)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing: %v", bounds)
		}
	}
	// seg-create + 4 records of the committed object = 5 boundaries after
	// the header.
	if len(bounds) != 6 {
		t.Fatalf("got %d boundaries, want 6: %v", len(bounds), bounds)
	}
}
