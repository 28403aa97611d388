package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gom/internal/oid"
	"gom/internal/page"
)

// stampRec builds a record of n bytes (at least 8) that says whose it is.
func stampRec(id oid.OID, n int) []byte {
	rec := make([]byte, n)
	binary.LittleEndian.PutUint64(rec, uint64(id))
	return rec
}

// TestDirectoryImageConsistency is the snapshot-consistency property of
// page directories, in the style of TestDiskTornRead: writers allocate,
// grow (relocating), shrink and delete objects — freed slots get reused —
// while readers borrow (image, directory) pairs and check that every slot
// a directory names holds, in that very image, a record of the object it
// names. A directory may lag behind the POT; it may never name a slot
// that holds another object. A record says whose it is in its first eight
// bytes (zero between Allocate, which picks the OID, and the stamping
// Update that follows). Run under -race.
func TestDirectoryImageConsistency(t *testing.T) {
	prev := SetSealReads(false)
	defer SetSealReads(prev)

	const (
		seg     = uint16(1)
		writers = 4
		readers = 4
		rounds  = 600
	)
	mgr := NewManager(1)
	if err := mgr.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 20260929} {
		var stop atomic.Bool
		var writersWG, readersWG sync.WaitGroup
		errCh := make(chan error, writers+readers)
		var pairs, named atomic.Int64

		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(w int) {
				defer writersWG.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)))
				type owned struct {
					id   oid.OID
					size int
				}
				var mine []owned
				for r := 0; r < rounds; r++ {
					switch op := rng.Intn(10); {
					case op < 4 || len(mine) == 0:
						size := 16 + rng.Intn(300)
						id, _, err := mgr.Allocate(seg, stampRec(0, size))
						if err == nil {
							_, err = mgr.Update(id, stampRec(id, size))
						}
						if err != nil {
							errCh <- fmt.Errorf("writer %d: allocate: %w", w, err)
							return
						}
						mine = append(mine, owned{id, size})
					case op < 8:
						// Mostly grow, so full pages relocate the object.
						k := rng.Intn(len(mine))
						mine[k].size = 8 + (mine[k].size+rng.Intn(400))%1500
						if _, err := mgr.Update(mine[k].id, stampRec(mine[k].id, mine[k].size)); err != nil {
							errCh <- fmt.Errorf("writer %d: update: %w", w, err)
							return
						}
					default:
						k := rng.Intn(len(mine))
						if err := mgr.Delete(mine[k].id); err != nil {
							errCh <- fmt.Errorf("writer %d: delete: %w", w, err)
							return
						}
						mine[k] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				}
			}(w)
		}
		for g := 0; g < readers; g++ {
			readersWG.Add(1)
			go func(g int) {
				defer readersWG.Done()
				rng := rand.New(rand.NewSource(seed + 1000 + int64(g)))
				check := func(pid page.PageID, img []byte, dir page.Directory) error {
					pairs.Add(1)
					if err := dir.Check(); err != nil {
						return fmt.Errorf("page %v: %w", pid, err)
					}
					for _, e := range dir.Entries() {
						named.Add(1)
						rec, err := page.ReadRecordInImage(img, int(e.Slot))
						if err != nil {
							return fmt.Errorf("page %v names %v in slot %d: %w", pid, e.ID, e.Slot, err)
						}
						if owner := oid.OID(binary.LittleEndian.Uint64(rec)); owner != 0 && owner != e.ID {
							return fmt.Errorf("page %v names %v in slot %d, which holds %v", pid, e.ID, e.Slot, owner)
						}
					}
					return nil
				}
				for !stop.Load() {
					n, err := mgr.Disk().NumPages(seg)
					if err != nil || n == 0 {
						continue
					}
					pid := page.NewPageID(seg, uint64(rng.Intn(n)))
					if rng.Intn(4) > 0 {
						img, dir, err := mgr.Disk().ReadPageDir(pid)
						if err == nil {
							err = check(pid, img, dir)
						}
						if err != nil {
							errCh <- err
							return
						}
						continue
					}
					imgs, dirs, err := mgr.Disk().ReadRunDir(pid, 1+rng.Intn(4))
					for i := 0; err == nil && i < len(imgs); i++ {
						err = check(pid+page.PageID(i), imgs[i], dirs[i])
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		writersWG.Wait()
		stop.Store(true)
		readersWG.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if err := mgr.VerifyDirectories(); err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d (image, directory) pairs naming %d slots checked", seed, pairs.Load(), named.Load())
	}
}

// TestDirectoryFollowsMutations walks one object through the four
// mutation sites and checks the directory of each page it touches.
func TestDirectoryFollowsMutations(t *testing.T) {
	mgr := NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	dirOf := func(pid page.PageID) page.Directory {
		t.Helper()
		_, dir, err := mgr.Disk().ReadPageDir(pid)
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// Fill a page with a run of objects, then one more near the first.
	var ids []oid.OID
	var addrs []PAddr
	for i := 0; i < 5; i++ {
		id, addr, err := mgr.Allocate(1, make([]byte, 700))
		if err != nil {
			t.Fatal(err)
		}
		ids, addrs = append(ids, id), append(addrs, addr)
	}
	p0 := addrs[0].Page
	if d := dirOf(p0); d.Len() != 1 || d.Objects() != 5 {
		t.Fatalf("five objects allocated in a row: %v", d.Entries())
	}
	near, naddr, err := mgr.AllocateNear(1, ids[0], make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	if slot, ok := dirOf(naddr.Page).Find(near); naddr.Page != p0 || !ok || slot != int(naddr.Slot) {
		t.Fatalf("AllocateNear placed %v at %v, directory says %d, %v", near, naddr, slot, ok)
	}
	// An update that fits leaves the directory alone; one that outgrows
	// the page moves the entry to the new page.
	before := dirOf(p0)
	if _, err := mgr.Update(ids[1], make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	if string(dirOf(p0)) != string(before) {
		t.Fatal("an in-place update changed the directory")
	}
	moved, err := mgr.Update(ids[1], make([]byte, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if moved.Page == p0 {
		t.Fatal("the growing update did not relocate")
	}
	if _, ok := dirOf(p0).Find(ids[1]); ok {
		t.Fatal("the old page still names the relocated object")
	}
	if slot, ok := dirOf(moved.Page).Find(ids[1]); !ok || slot != int(moved.Slot) {
		t.Fatalf("the new page names the relocated object at %d, %v; want %d", slot, ok, moved.Slot)
	}
	// Delete frees the slot; the next allocation on the page reuses it for
	// another object.
	if err := mgr.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := dirOf(p0).Find(ids[2]); ok {
		t.Fatal("the page still names the deleted object")
	}
	reuse, raddr, err := mgr.AllocateNear(1, ids[0], make([]byte, 50))
	if err != nil {
		t.Fatal(err)
	}
	if raddr != addrs[1] && raddr != addrs[2] {
		t.Fatalf("expected a freed slot of %v to be reused, got %v", p0, raddr)
	}
	if slot, ok := dirOf(p0).Find(reuse); !ok || slot != int(raddr.Slot) {
		t.Fatalf("reused slot: directory says %d, %v", slot, ok)
	}
	if err := mgr.VerifyDirectories(); err != nil {
		t.Fatal(err)
	}
	// The specification convicts drift: a POT entry the directory lacks.
	mgr.POT().Put(oid.MustNew(1, 9999), PAddr{Page: p0, Slot: 0})
	if err := mgr.VerifyDirectories(); err == nil {
		t.Fatal("VerifyDirectories accepted a directory that lacks a POT entry")
	}
}
