package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"gom/internal/page"
)

// TestVersionStoreSnapshotProperty drives the version store through a
// randomized schedule of writer rounds (stage before-image, mutate the
// live page, publish) interleaved with snapshot acquire/release, and
// checks the two load-bearing invariants after every round:
//
//   - every active snapshot reads exactly the page images that were live
//     when it was acquired (frozen, repeatable reads), and
//   - once no snapshot needs a version it is retired — with all
//     snapshots released the store drains to zero entries.
func TestVersionStoreSnapshotProperty(t *testing.T) {
	m := NewManager(1)
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	// A handful of pages via real allocations, so the images are honest
	// slotted pages rather than synthetic byte soup.
	rec := make([]byte, 300)
	for i := 0; i < 48; i++ {
		rec[0] = byte(i)
		if _, _, err := m.Allocate(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	n, err := m.Disk().NumPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("want several pages for the property to bite, got %d", n)
	}
	pids := make([]page.PageID, 0, n)
	for i := 0; i < n; i++ {
		pids = append(pids, page.NewPageID(1, uint64(i)))
	}

	vs := m.Versions()
	rng := rand.New(rand.NewSource(41))

	type snapState struct {
		id      uint64
		readLSN uint64
		want    map[page.PageID][]byte // live image at acquire time
	}
	var active []snapState

	capture := func() map[page.PageID][]byte {
		want := make(map[page.PageID][]byte, len(pids))
		for _, pid := range pids {
			img, err := m.Disk().ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			want[pid] = img
		}
		return want
	}
	check := func(round int) {
		t.Helper()
		for _, s := range active {
			for _, pid := range pids {
				got, _, _, err := vs.ReadPageDir(s.readLSN, pid)
				if err != nil {
					t.Fatalf("round %d: snapshot %d read %v: %v", round, s.id, pid, err)
				}
				if !bytes.Equal(got, s.want[pid]) {
					t.Fatalf("round %d: snapshot %d (read-LSN %d) sees a drifted image of %v",
						round, s.id, s.readLSN, pid)
				}
			}
		}
	}

	const rounds = 60
	for r := 1; r <= rounds; r++ {
		// Sometimes open a snapshot of the current state.
		if rng.Intn(3) == 0 {
			id, lsn, _ := vs.AcquireSnapshot()
			active = append(active, snapState{id: id, readLSN: lsn, want: capture()})
		}

		// A writer round: stage before-images, mutate the live pages,
		// publish at one commit boundary (what the WAL hook does).
		tx := uint64(r)
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			pid := pids[rng.Intn(len(pids))]
			img, err := m.Disk().ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			if err := vs.StagePage(tx, pid); err != nil {
				t.Fatal(err)
			}
			mutated := append([]byte(nil), img...)
			// Flip payload bytes well past the header; the image only has
			// to differ, not to stay a parseable page.
			mutated[len(mutated)-1-i] ^= 0xa5
			if err := m.Disk().WritePage(pid, mutated); err != nil {
				t.Fatal(err)
			}
		}
		vs.Publish([]uint64{tx})
		check(r)

		// Sometimes retire a random snapshot; the rest must be unaffected.
		if len(active) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(active))
			vs.ReleaseSnapshot(active[i].id)
			active = append(active[:i], active[i+1:]...)
			check(r)
		}

		// Retirement safety: nothing an active snapshot can reach may be
		// gone, and with no snapshots the store must not hoard history.
		st := vs.Stats()
		if len(active) == 0 && st.Entries != 0 {
			t.Fatalf("round %d: no active snapshots but %d version entries retained (%+v)", r, st.Entries, st)
		}
		if st.Watermark > st.Stable {
			t.Fatalf("round %d: watermark %d ahead of stable %d", r, st.Watermark, st.Stable)
		}
	}

	for _, s := range active {
		vs.ReleaseSnapshot(s.id)
	}
	if st := vs.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Snapshots != 0 {
		t.Fatalf("store not drained after releasing every snapshot: %+v", st)
	}
}

// TestVersionStoreLoneliness: with no snapshots ever taken, publishing
// retires immediately — the store must stay empty so the no-snapshot
// read path keeps its zero-cost fast path.
func TestVersionStoreNoSnapshotStaysEmpty(t *testing.T) {
	m := NewManager(1)
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Allocate(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	vs := m.Versions()
	pid := page.NewPageID(1, 0)
	for r := 1; r <= 10; r++ {
		if err := vs.StagePage(uint64(r), pid); err != nil {
			t.Fatal(err)
		}
		vs.Publish([]uint64{uint64(r)})
		if st := vs.Stats(); st.Entries != 0 {
			t.Fatalf("round %d: %d entries retained with no snapshot active", r, st.Entries)
		}
	}
}

// TestVersionStoreReadsPairs: a snapshot read answers with an image and the
// directory published with that image — the published, pending or live
// pair its read point resolves to — and withholds the directory while it
// names an object whose POT mapping is versioned past the read point.
func TestVersionStoreReadsPairs(t *testing.T) {
	m := NewManager(1)
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	a, addrA, err := m.Allocate(1, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	pid := addrA.Page
	other, _, err := m.Allocate(1, make([]byte, page.MaxRecord)) // too big for a's page
	if err != nil {
		t.Fatal(err)
	}
	vs := m.Versions()
	livePair := func() ([]byte, page.Directory) {
		t.Helper()
		img, dir, err := m.Disk().ReadPageDir(pid)
		if err != nil {
			t.Fatal(err)
		}
		return img, dir
	}
	read := func(readLSN uint64, wantImg []byte, wantDir page.Directory, wantWithheld bool) {
		t.Helper()
		img, dir, withheld, err := vs.ReadPageDir(readLSN, pid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, wantImg) {
			t.Errorf("read-LSN %d: the image is not the one its read point resolves to", readLSN)
		}
		if withheld != wantWithheld || !bytes.Equal(dir, wantDir) || (withheld && dir != nil) {
			t.Errorf("read-LSN %d: directory %v (withheld %v), want %v (withheld %v)", readLSN, dir.Entries(), withheld, wantDir.Entries(), wantWithheld)
		}
	}

	// R0 pins the state before tx 1, which stages the page and then adds
	// object b to it: image and directory both change.
	snap0, r0, _ := vs.AcquireSnapshot()
	img0, dir0 := livePair()
	if err := vs.StagePage(1, pid); err != nil {
		t.Fatal(err)
	}
	b, _, err := m.AllocateNear(1, a, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	img1, dir1 := livePair()
	if _, named := dir1.Find(b); !named || bytes.Equal(dir0, dir1) {
		t.Fatalf("setup: b is not on page %v next to a", pid)
	}
	read(r0, img0, dir0, false) // pending
	vs.Publish([]uint64{1})
	snap1, r1, _ := vs.AcquireSnapshot()
	read(r0, img0, dir0, false) // published
	read(r1, img1, dir1, false) // live

	// Sealed reads hand out copies of the directory as well as the image;
	// borrowed ones the retained pair itself.
	for _, sealed := range []bool{true, false} {
		prev := SetSealReads(sealed)
		_, d1, _, _ := vs.ReadPageDir(r0, pid)
		_, d2, _, _ := vs.ReadPageDir(r0, pid)
		SetSealReads(prev)
		if shared := &d1[0] == &d2[0]; shared == sealed {
			t.Errorf("sealed reads %v: two reads share the directory: %v", sealed, shared)
		}
	}

	// A POT version of an object the page does not name changes nothing.
	vs.StagePot(2, other, PAddr{}, true)
	read(r1, img1, dir1, false)
	// One of an object it names withholds the directory, pending and once
	// published past the read point; the image still comes.
	vs.StagePot(2, a, addrA, true)
	read(r0, img0, nil, true)
	read(r1, img1, nil, true)
	vs.Publish([]uint64{2})
	snap2, r2, _ := vs.AcquireSnapshot()
	read(r1, img1, nil, true)
	read(r2, img1, dir1, false) // published at or before the read point
	// Retired with the snapshots that could see past it, it withholds
	// nothing.
	vs.ReleaseSnapshot(snap0)
	vs.ReleaseSnapshot(snap1)
	if st := vs.Stats(); st.POTs != 0 || st.Pages != 0 {
		t.Fatalf("after retirement: %+v", st)
	}
	read(r2, img1, dir1, false)
	vs.ReleaseSnapshot(snap2)
}
