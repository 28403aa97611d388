package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
)

// The crash-point sweep and the recovery property test share one notion of
// correctness: cut the WAL at byte L (simulating a crash whose durable
// prefix is exactly L), recover, and the recovered object base must equal
// the committed view as of the last commit record wholly within L — every
// committed object readable with its committed bytes, nothing else in the
// POT.

// commitPoint records the WAL offset of a commit and a deep copy of the
// committed object view at that point.
type commitPoint struct {
	off  int64
	view map[oid.OID][]byte
}

func snapshotView(view map[oid.OID][]byte) map[oid.OID][]byte {
	out := make(map[oid.OID][]byte, len(view))
	for id, rec := range view {
		out[id] = append([]byte(nil), rec...)
	}
	return out
}

// cutLogDir stages a crash image: a fresh directory holding the log
// truncated to cut bytes (the workloads below never checkpoint, so the log
// is the entire durable state).
func cutLogDir(t *testing.T, logPath string, cut int64) string {
	t.Helper()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if cut > int64(len(data)) {
		t.Fatalf("cut %d beyond log of %d bytes", cut, len(data))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(logPath)), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkRecoveredPrefix recovers the crash image cut at cut and asserts it
// equals the committed prefix; label contextualizes failures (cut point,
// PRNG seed).
func checkRecoveredPrefix(t *testing.T, logPath string, cut int64, commits []commitPoint, label string) {
	t.Helper()
	dir := cutLogDir(t, logPath, cut)
	m, w, info, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	defer w.Close()
	var want map[oid.OID][]byte
	for i := range commits {
		if commits[i].off <= cut {
			want = commits[i].view
		}
	}
	if got := m.POT().Len(); got != len(want) {
		t.Fatalf("%s: recovered %d objects, want %d (info: %v)", label, got, len(want), info)
	}
	if err := m.VerifyDirectories(); err != nil {
		t.Fatalf("%s: page directories after recovery: %v", label, err)
	}
	for id, rec := range want {
		got, _, err := m.Read(id)
		if err != nil {
			t.Fatalf("%s: committed object %v lost: %v", label, id, err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("%s: object %v recovered as %q, committed %q", label, id, got, rec)
		}
	}
}

// runScriptedWorkload drives a fixed transaction script over a durable
// TxServer in dir: commits, an abort, an update-in-place, a relocating
// update, and a raw page write. It returns the log path, the commit
// points, and the ids allocated (committed or not) for negative checks.
func runScriptedWorkload(t *testing.T, dir string) (string, []commitPoint) {
	t.Helper()
	m, w, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	ts := NewTxServer(m, 2*time.Second)
	view := map[oid.OID][]byte{}
	var commits []commitPoint

	begin := func() (TxID, Server) {
		tx := ts.Begin()
		return tx, ts.Session(tx)
	}
	commit := func(tx TxID, pending map[oid.OID][]byte) {
		if err := ts.Commit(tx); err != nil {
			t.Fatalf("commit %d: %v", tx, err)
		}
		for id, rec := range pending {
			view[id] = rec
		}
		commits = append(commits, commitPoint{off: w.Offset(), view: snapshotView(view)})
	}

	// tx1: three small allocations.
	tx1, s1 := begin()
	p1 := map[oid.OID][]byte{}
	for i := 0; i < 3; i++ {
		rec := []byte(fmt.Sprintf("tx1-object-%d", i))
		id, _, err := s1.Allocate(1, rec)
		if err != nil {
			t.Fatal(err)
		}
		p1[id] = rec
	}
	commit(tx1, p1)

	// Pick a committed object to mutate later.
	var victim oid.OID
	for id := range p1 {
		victim = id
		break
	}

	// tx2: clustered allocation plus an in-place update of tx1's object.
	tx2, s2 := begin()
	p2 := map[oid.OID][]byte{}
	nid, _, err := s2.AllocateNear(1, victim, []byte("tx2-near"))
	if err != nil {
		t.Fatal(err)
	}
	p2[nid] = []byte("tx2-near")
	upd := []byte("tx1-object-X") // same length: updates in place
	if _, err := s2.UpdateObject(victim, upd); err != nil {
		t.Fatal(err)
	}
	p2[victim] = upd
	commit(tx2, p2)

	// tx3: allocations that are rolled back — they must never recover.
	tx3, s3 := begin()
	for i := 0; i < 2; i++ {
		if _, _, err := s3.Allocate(1, []byte("tx3-doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Abort(tx3); err != nil {
		t.Fatal(err)
	}

	// tx4: a growing update that forces relocation to another page.
	tx4, s4 := begin()
	big := bytes.Repeat([]byte("grow!"), 500) // 2500 bytes
	if _, err := s4.UpdateObject(victim, big); err != nil {
		t.Fatal(err)
	}
	commit(tx4, map[oid.OID][]byte{victim: big})

	// tx5: a raw page write (a legally edited image of the near object's
	// page, as a client shipping back a buffered page would produce).
	tx5, s5 := begin()
	addr, err := s5.Lookup(nid)
	if err != nil {
		t.Fatal(err)
	}
	img, err := s5.ReadPage(addr.Page)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.FromImage(img)
	if err != nil {
		t.Fatal(err)
	}
	edited := []byte("tx5-EDIT")
	if err := pg.Update(int(addr.Slot), edited); err != nil {
		t.Fatal(err)
	}
	if err := s5.WritePage(addr.Page, pg.Image()); err != nil {
		t.Fatal(err)
	}
	commit(tx5, map[oid.OID][]byte{nid: edited})

	logPath := w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return logPath, commits
}

// TestWALCrashPointSweep kills the log at every record boundary and at
// every torn-byte offset inside the final record; recovery must yield
// exactly the committed prefix each time.
func TestWALCrashPointSweep(t *testing.T) {
	logPath, commits := runScriptedWorkload(t, t.TempDir())
	bounds, err := storage.WALRecordBoundaries(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 10 {
		t.Fatalf("workload produced only %d record boundaries", len(bounds))
	}
	cuts := append([]int64(nil), bounds...)
	// Every byte offset inside the final record: a torn tail of the very
	// last append.
	for off := bounds[len(bounds)-2] + 1; off < bounds[len(bounds)-1]; off++ {
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			checkRecoveredPrefix(t, logPath, cut, commits, fmt.Sprintf("cut %d", cut))
		})
	}
}

// TestWALCrashRecoveryProperty runs a randomized interleaved commit/abort
// workload against an in-memory model, then crashes at random WAL offsets;
// the recovered base must match the model's committed view every time. The
// interleaving and the cuts are driven by a seeded PRNG — failures print
// the seed, and re-running with it reproduces the exact schedule.
func TestWALCrashRecoveryProperty(t *testing.T) {
	for _, seed := range []int64{1, 20260806, 424242} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			logPath, commits := runRandomWorkload(t, seed)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i := 0; i < 24; i++ {
				cut := 16 + rng.Int63n(int64(len(data))-16+1)
				checkRecoveredPrefix(t, logPath, cut, commits,
					fmt.Sprintf("seed %d cut %d", seed, cut))
			}
		})
	}
}

// propTx is one open transaction of the random workload: its session, its
// segment (each slot owns a segment, so the two interleaved transactions
// never contend for page locks and both always reach their commit/abort
// point), and its pending (uncommitted) writes.
type propTx struct {
	tx      TxID
	sess    Server
	seg     uint16
	pending map[oid.OID][]byte
	mine    []oid.OID // committed objects in this slot's segment
}

// runRandomWorkload interleaves two transactions' allocates, updates,
// commits, and aborts in a PRNG-chosen order, maintaining the committed
// view model, and returns the log path plus the commit points.
func runRandomWorkload(t *testing.T, seed int64) (string, []commitPoint) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, w, _, err := storage.RecoverManager(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for seg := uint16(1); seg <= 2; seg++ {
		if err := m.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	ts := NewTxServer(m, 2*time.Second)
	view := map[oid.OID][]byte{}
	var commits []commitPoint
	slots := [2]*propTx{{seg: 1}, {seg: 2}}
	serial := 0

	for step := 0; step < 160; step++ {
		st := slots[rng.Intn(2)]
		if st.sess == nil {
			st.tx = ts.Begin()
			st.sess = ts.Session(st.tx)
			st.pending = map[oid.OID][]byte{}
			continue
		}
		switch r := rng.Intn(10); {
		case r < 4: // allocate (sometimes clustered)
			serial++
			rec := []byte(fmt.Sprintf("seg%d-obj%d-seed%d", st.seg, serial, seed))
			var id oid.OID
			var aerr error
			if len(st.mine) > 0 && rng.Intn(2) == 0 {
				id, _, aerr = st.sess.AllocateNear(st.seg, st.mine[rng.Intn(len(st.mine))], rec)
			} else {
				id, _, aerr = st.sess.Allocate(st.seg, rec)
			}
			if aerr != nil {
				t.Fatalf("seed %d step %d: allocate: %v", seed, step, aerr)
			}
			st.pending[id] = rec
		case r < 7: // update a committed object of this slot's segment
			if len(st.mine) == 0 {
				continue
			}
			id := st.mine[rng.Intn(len(st.mine))]
			size := 8 + rng.Intn(600) // sometimes forces relocation
			rec := bytes.Repeat([]byte{byte('a' + serial%26)}, size)
			serial++
			if _, err := st.sess.UpdateObject(id, rec); err != nil {
				t.Fatalf("seed %d step %d: update: %v", seed, step, err)
			}
			st.pending[id] = rec
		case r < 9: // commit
			if err := ts.Commit(st.tx); err != nil {
				t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
			}
			for id, rec := range st.pending {
				if _, known := view[id]; !known {
					st.mine = append(st.mine, id)
				}
				view[id] = rec
			}
			commits = append(commits, commitPoint{off: w.Offset(), view: snapshotView(view)})
			st.sess = nil
		default: // abort
			if err := ts.Abort(st.tx); err != nil {
				t.Fatalf("seed %d step %d: abort: %v", seed, step, err)
			}
			st.sess = nil
		}
	}
	for _, st := range slots {
		if st.sess != nil {
			if err := ts.Abort(st.tx); err != nil {
				t.Fatalf("seed %d: final abort: %v", seed, err)
			}
		}
	}
	if len(commits) == 0 {
		t.Fatalf("seed %d: workload committed nothing", seed)
	}
	logPath := w.Path()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return logPath, commits
}
