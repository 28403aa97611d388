package storage

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gom/internal/oid"
	"gom/internal/page"
)

// TestManagerConcurrentMixedOps hammers the sharded locking design: workers
// allocate, read, update, and delete in parallel — each worker mutates only
// its own objects (so read-back verification is race-free) but all of them
// allocate into one shared segment as well as a private one, so the shared
// segment's fill page, the POT shards, and the disk lock all see real
// contention. A background goroutine runs Save concurrently, which must
// quiesce data operations and serialize a consistent image. Run under -race.
func TestManagerConcurrentMixedOps(t *testing.T) {
	const (
		workers   = 8
		iters     = 300
		sharedSeg = uint16(0)
	)
	mgr := NewManager(1)
	if err := mgr.CreateSegment(sharedSeg); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if err := mgr.CreateSegment(uint16(w + 1)); err != nil {
			t.Fatal(err)
		}
	}

	// A read-only set every worker looks up (batch and single) while the
	// writers churn: these objects are never updated or deleted.
	stable := make([]oid.OID, 64)
	stableRec := func(i int) []byte { return []byte(fmt.Sprintf("stable-%03d", i)) }
	for i := range stable {
		id, _, err := mgr.Allocate(sharedSeg, stableRec(i))
		if err != nil {
			t.Fatal(err)
		}
		stable[i] = id
	}

	rec := func(w, seq, ver int) []byte {
		return []byte(fmt.Sprintf("w%02d-s%04d-v%04d-%s", w, seq, ver, string(make([]byte, ver%37))))
	}

	type owned struct {
		id       oid.OID
		seq, ver int
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	stop := make(chan struct{})

	// Concurrent Save: exercises the quiesce lock against every data op.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := mgr.Save(io.Discard); err != nil {
				errCh <- fmt.Errorf("concurrent Save: %w", err)
				return
			}
		}
	}()

	final := make([][]owned, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			priv := uint16(w + 1)
			var mine []owned
			seq := 0
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(mine) == 0: // allocate
					seg := sharedSeg
					if rng.Intn(2) == 0 {
						seg = priv
					}
					var id oid.OID
					var err error
					if len(mine) > 0 && rng.Intn(3) == 0 {
						id, _, err = mgr.AllocateNear(seg, mine[rng.Intn(len(mine))].id, rec(w, seq, 0))
					} else {
						id, _, err = mgr.Allocate(seg, rec(w, seq, 0))
					}
					if err != nil {
						errCh <- fmt.Errorf("worker %d: allocate: %w", w, err)
						return
					}
					mine = append(mine, owned{id: id, seq: seq})
					seq++
				case op < 6: // update own object (sizes vary → relocations)
					k := rng.Intn(len(mine))
					mine[k].ver++
					if _, err := mgr.Update(mine[k].id, rec(w, mine[k].seq, mine[k].ver)); err != nil {
						errCh <- fmt.Errorf("worker %d: update: %w", w, err)
						return
					}
				case op < 7: // delete own object
					k := rng.Intn(len(mine))
					if err := mgr.Delete(mine[k].id); err != nil {
						errCh <- fmt.Errorf("worker %d: delete: %w", w, err)
						return
					}
					mine[k] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				case op < 8: // read own object back, verify content
					k := rng.Intn(len(mine))
					got, _, err := mgr.Read(mine[k].id)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: read: %w", w, err)
						return
					}
					want := rec(w, mine[k].seq, mine[k].ver)
					if string(got) != string(want) {
						errCh <- fmt.Errorf("worker %d: read %v = %q, want %q", w, mine[k].id, got, want)
						return
					}
				case op < 9: // single lookup of the stable set
					j := rng.Intn(len(stable))
					if _, err := mgr.Lookup(stable[j]); err != nil {
						errCh <- fmt.Errorf("worker %d: stable lookup: %w", w, err)
						return
					}
				default: // batch lookup of a stable slice + one unknown OID
					ids := append([]oid.OID{oid.OID(1 << 60)}, stable[:8]...)
					_, ok := mgr.LookupBatch(ids)
					if ok[0] {
						errCh <- fmt.Errorf("worker %d: unknown OID resolved in batch", w)
						return
					}
					for j := 1; j < len(ok); j++ {
						if !ok[j] {
							errCh <- fmt.Errorf("worker %d: stable OID missing from batch", w)
							return
						}
					}
				}
			}
			final[w] = mine
		}()
	}
	wg.Wait()
	close(stop)
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Post-run audit: every surviving object reads back its last-written
	// content, and the stable set is untouched.
	for w, mine := range final {
		for _, o := range mine {
			got, _, err := mgr.Read(o.id)
			if err != nil {
				t.Fatalf("audit worker %d object %v: %v", w, o.id, err)
			}
			if want := rec(w, o.seq, o.ver); string(got) != string(want) {
				t.Fatalf("audit worker %d object %v = %q, want %q", w, o.id, got, want)
			}
		}
	}
	for i, id := range stable {
		got, _, err := mgr.Read(id)
		if err != nil || string(got) != string(stableRec(i)) {
			t.Fatalf("stable object %d corrupted: %q, %v", i, got, err)
		}
	}
	// And every page's directory is the POT reversed.
	if err := mgr.VerifyDirectories(); err != nil {
		t.Fatal(err)
	}
}

// TestPOTConcurrentShards drives the sharded POT directly from many
// goroutines with disjoint key ranges plus a shared read-only range.
func TestPOTConcurrentShards(t *testing.T) {
	pot := NewPOT()
	const shared = 512
	for i := 0; i < shared; i++ {
		pot.Put(oid.OID(i), PAddr{Page: page.NewPageID(0, uint64(i))})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := oid.OID(10_000 * (w + 1))
			for i := 0; i < 2000; i++ {
				id := base + oid.OID(i)
				pot.Put(id, PAddr{Page: page.NewPageID(uint16(w), uint64(i))})
				if addr, ok := pot.Get(id); !ok || addr.Page.No() != uint64(i) {
					t.Errorf("worker %d: lost own put of %v", w, id)
					return
				}
				if _, ok := pot.Get(oid.OID(i % shared)); !ok {
					t.Errorf("worker %d: shared key %d vanished", w, i%shared)
					return
				}
				if i%3 == 0 {
					pot.Delete(id)
					if _, ok := pot.Get(id); ok {
						t.Errorf("worker %d: delete of %v did not take", w, id)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := pot.Len(); got != shared+8*2000-8*667 {
		t.Fatalf("POT len = %d, want %d", got, shared+8*2000-8*667)
	}
}
