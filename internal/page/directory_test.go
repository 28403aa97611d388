package page

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gom/internal/oid"
)

func TestDirectoryClusteredPageIsOneExtent(t *testing.T) {
	var d Directory
	for i := 0; i < 80; i++ {
		d = d.With(oid.OID(1000+i), i)
	}
	if d.Len() != 1 || d.At(0) != (Extent{First: 1000, Slot: 0, Count: 80}) {
		t.Fatalf("80 consecutive objects in consecutive slots: %v", d.extents())
	}
	if slot, ok := d.Find(1042); !ok || slot != 42 {
		t.Fatalf("Find(1042) = %d, %v", slot, ok)
	}
	for _, id := range []oid.OID{999, 1080, 0} {
		if _, ok := d.Find(id); ok {
			t.Errorf("Find(%d) hit outside the extent", id)
		}
	}
	// Taking one out of the middle splits the run; putting it back into the
	// same slot joins it again, into another slot it does not.
	d = d.Without(1040)
	if d.Len() != 2 || d.Objects() != 79 {
		t.Fatalf("after Without: %v", d.extents())
	}
	if again := d.With(1040, 40); again.Len() != 1 {
		t.Fatalf("refiled into its old slot: %v", again.extents())
	}
	moved := d.With(1040, 90)
	if slot, _ := moved.Find(1040); moved.Len() != 3 || slot != 90 {
		t.Fatalf("refiled into slot 90: %v", moved.extents())
	}
	if same := d.Without(7); !bytes.Equal(same, d) {
		t.Fatal("Without of an absent OID changed the directory")
	}
}

// TestDirectoryMatchesBuild drives With/Without with random allocations,
// deletions with slot reuse, and moves, and holds the result to
// BuildDirectory over a plain map after every step.
func TestDirectoryMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Directory
		slotOf := map[oid.OID]uint16{}
		used := map[uint16]bool{}
		next := oid.OID(100)
		for step := 0; step < 400; step++ {
			switch {
			case len(slotOf) == 0 || rng.Intn(3) > 0:
				slot := uint16(0)
				for used[slot] {
					slot++
				}
				if rng.Intn(4) == 0 {
					next += oid.OID(rng.Intn(3)) // a gap in the OIDs
				}
				d = d.With(next, int(slot))
				slotOf[next], used[slot] = slot, true
				next++
			default:
				var victim oid.OID
				for id := range slotOf {
					victim = id
					break
				}
				d = d.Without(victim)
				delete(used, slotOf[victim])
				delete(slotOf, victim)
			}
			var entries []DirEntry
			for id, slot := range slotOf {
				entries = append(entries, DirEntry{ID: id, Slot: slot})
			}
			if want := BuildDirectory(entries); !bytes.Equal(d, want) {
				t.Fatalf("seed %d step %d: incremental %v, rebuilt %v", seed, step, d.extents(), want.extents())
			}
			if err := d.Check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for id, slot := range slotOf {
				if got, ok := d.Find(id); !ok || got != int(slot) {
					t.Fatalf("seed %d step %d: Find(%v) = %d, %v, want %d", seed, step, id, got, ok, slot)
				}
			}
		}
	}
}

func TestSplitImage(t *testing.T) {
	img := New(NewPageID(1, 2)).CloneImage()
	dir := BuildDirectory([]DirEntry{{ID: 10, Slot: 0}, {ID: 11, Slot: 1}, {ID: 20, Slot: 5}})

	got, none, err := SplitImage(img)
	if err != nil || len(none) != 0 || !bytes.Equal(got, img) {
		t.Fatalf("bare image: dir %v, err %v", none, err)
	}
	got, d, err := SplitImage(append(append([]byte(nil), img...), dir...))
	if err != nil || !bytes.Equal(got, img) || !bytes.Equal(d, dir) {
		t.Fatalf("image with directory: dir %v, err %v", d.extents(), err)
	}
	if cap(got) != Size {
		t.Fatal("the image slice can grow into the directory")
	}

	ext := func(first uint64, slot, count uint16) []byte {
		return appendExtent(nil, Extent{First: oid.OID(first), Slot: slot, Count: count})
	}
	bad := map[string][]byte{
		"short image":        img[:Size-1],
		"half an extent":     append(append([]byte(nil), img...), dir[:ExtentSize/2]...),
		"empty extent":       append(append([]byte(nil), img...), ext(10, 0, 0)...),
		"slot past the page": append(append([]byte(nil), img...), ext(10, SlotLimit-1, 2)...),
		"unsorted":           append(append(append([]byte(nil), img...), ext(20, 0, 1)...), ext(10, 1, 1)...),
		"overlapping":        append(append(append([]byte(nil), img...), ext(10, 0, 5)...), ext(12, 9, 1)...),
		"oid overflow":       append(append([]byte(nil), img...), ext(^uint64(0), 0, 2)...),
		"over the cap":       append(append([]byte(nil), img...), make([]byte, (MaxShippedExtents+1)*ExtentSize)...),
	}
	for name, b := range bad {
		if _, _, err := SplitImage(b); !errors.Is(err, ErrCorruptPage) {
			t.Errorf("%s: err = %v, want ErrCorruptPage", name, err)
		}
	}
}

func TestDirectoryShippedCap(t *testing.T) {
	var d Directory
	for i := 0; i < MaxShippedExtents+5; i++ {
		d = d.With(oid.OID(100+2*i), i) // every other OID: no two join
	}
	if d.Len() != MaxShippedExtents+5 {
		t.Fatalf("%d extents", d.Len())
	}
	s := d.Shipped()
	if s.Len() != MaxShippedExtents || !bytes.Equal(s, d[:len(s)]) {
		t.Fatalf("shipped %d extents", s.Len())
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSplitImage: whatever arrives behind a page image, SplitImage either
// rejects it or returns a directory whose every answer stays on the page.
func FuzzSplitImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(appendExtent(nil, Extent{First: 1, Slot: 0, Count: 3})))
	f.Add([]byte(appendExtent(nil, Extent{First: 1, Slot: SlotLimit, Count: 1})))
	f.Add(make([]byte, ExtentSize-1))
	f.Add([]byte(appendExtent(appendExtent(nil, Extent{First: 9, Slot: 0, Count: 2}), Extent{First: 3, Slot: 4, Count: 1})))
	img := New(NewPageID(0, 0)).CloneImage()
	f.Fuzz(func(t *testing.T, trailer []byte) {
		_, dir, err := SplitImage(append(append([]byte(nil), img...), trailer...))
		if err != nil {
			return
		}
		if dir.Len() > MaxShippedExtents {
			t.Fatalf("accepted %d extents", dir.Len())
		}
		for i := 0; i < dir.Len(); i++ {
			e := dir.At(i)
			for _, id := range []oid.OID{e.First, e.First + oid.OID(e.Count) - 1} {
				if slot, ok := dir.Find(id); !ok || slot < 0 || slot >= SlotLimit {
					t.Fatalf("Find(%v) = %d, %v", id, slot, ok)
				}
			}
		}
	})
}
