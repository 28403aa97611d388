package storage

import (
	"errors"
	"testing"

	"gom/internal/metrics"
	"gom/internal/page"
)

// TestVersionStoreCap exercises the retained-bytes cap: once published
// history exceeds the cap, AcquireSnapshot refuses with
// ErrVersionCapExceeded (counting version_store_cap_refusals), and after
// the pinning snapshot is released — letting retirement drain the backlog
// — acquisition recovers. Writers are never refused: staging must always
// succeed because the writer already holds its page locks.
func TestVersionStoreCap(t *testing.T) {
	m := NewManager(1)
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Allocate(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	vs := m.Versions()
	reg := metrics.New()
	vs.SetMetrics(reg)
	vs.SetCapBytes(2 * page.Size)
	defer vs.SetCapBytes(0)

	// A pinning snapshot forces every published before-image to be
	// retained.
	pin, _, err := vs.AcquireSnapshot()
	if err != nil {
		t.Fatalf("acquire under empty store: %v", err)
	}

	// Publish three distinct page versions: 3*page.Size retained > cap.
	pid := page.NewPageID(1, 0)
	for r := 1; r <= 3; r++ {
		img, err := m.Disk().ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		if err := vs.StagePage(uint64(r), pid); err != nil {
			t.Fatal(err)
		}
		mutated := append([]byte(nil), img...)
		mutated[len(mutated)-1] ^= byte(r)
		if err := m.Disk().WritePage(pid, mutated); err != nil {
			t.Fatal(err)
		}
		vs.Publish([]uint64{uint64(r)})
	}
	if st := vs.Stats(); st.Bytes <= 2*page.Size {
		t.Fatalf("retained %d bytes, want > cap %d (test setup broken)", st.Bytes, 2*page.Size)
	}

	// Over cap: new snapshots are refused with the typed error.
	if _, _, err := vs.AcquireSnapshot(); !errors.Is(err, ErrVersionCapExceeded) {
		t.Fatalf("acquire over cap: got %v, want ErrVersionCapExceeded", err)
	}
	if _, _, err := vs.AcquireSnapshot(); !errors.Is(err, ErrVersionCapExceeded) {
		t.Fatalf("second acquire over cap: got %v, want ErrVersionCapExceeded", err)
	}
	if got := reg.Snapshot().Counters[metrics.CtrVersionCapRefusal]; got != 2 {
		t.Fatalf("version_store_cap_refusals = %d, want 2", got)
	}

	// The pinned snapshot still reads its frozen state while refusals are
	// happening — the cap sheds new admissions, not existing readers.
	pinLSN := uint64(0) // snapshot pin's read-LSN was stable at acquire: 0 publishes then
	if _, _, _, err := vs.ReadPageDir(pinLSN, pid); err != nil {
		t.Fatalf("pinned snapshot read during refusal window: %v", err)
	}

	// Recovery: release the pin, retirement drains the history, and
	// acquisition succeeds again.
	vs.ReleaseSnapshot(pin)
	if st := vs.Stats(); st.Entries != 0 {
		t.Fatalf("store not drained after releasing the only snapshot: %+v", st)
	}
	id, _, err := vs.AcquireSnapshot()
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	vs.ReleaseSnapshot(id)
	if got := reg.Snapshot().Counters[metrics.CtrVersionCapRefusal]; got != 2 {
		t.Fatalf("version_store_cap_refusals moved to %d after recovery, want 2", got)
	}
}
