package page

import (
	"encoding/binary"
	"fmt"
	"sort"

	"gom/internal/oid"
)

// Page directories: which object lives in which slot, so that a client
// holding a page can resolve the OIDs of the objects on it without asking
// the server (DESIGN.md "Page directories").
//
// A directory is the reverse of the persistent object table restricted to
// one page, run-length encoded: objects allocated together have
// consecutive OIDs in consecutive slots, so a clustered page is one
// extent. The server's storage manager maintains it; the pipelined wire
// ships it behind the page image; the client's buffer pool indexes it for
// as long as it holds the frame.

// Extent says that Count objects with consecutive OIDs starting at First
// occupy consecutive slots starting at Slot.
type Extent struct {
	First oid.OID
	Slot  uint16
	Count uint16
}

// ExtentSize is the encoded size of one extent: OID (8), slot (2),
// count (2), little endian.
const ExtentSize = 12

// MaxShippedExtents caps the directory shipped with one page. A page
// more fragmented than this ships a prefix; the objects it leaves out
// resolve by Lookup.
const MaxShippedExtents = 16

// MaxShippedLen is the largest byte slice a page read returns: the image
// plus a full shipped directory.
const MaxShippedLen = Size + MaxShippedExtents*ExtentSize

// Directory is the encoded extent list of one page, sorted by First and
// non-overlapping. It is immutable: With and Without return fresh slices,
// so a directory may be shared with concurrent readers.
type Directory []byte

// DirEntry is one (object, slot) pair, the input of BuildDirectory.
type DirEntry struct {
	ID   oid.OID
	Slot uint16
}

// Len returns the number of extents.
func (d Directory) Len() int { return len(d) / ExtentSize }

// At returns the i-th extent.
func (d Directory) At(i int) Extent {
	b := d[i*ExtentSize:]
	return Extent{
		First: oid.OID(binary.LittleEndian.Uint64(b)),
		Slot:  binary.LittleEndian.Uint16(b[8:]),
		Count: binary.LittleEndian.Uint16(b[10:]),
	}
}

// Objects returns the number of objects the directory names.
func (d Directory) Objects() int {
	n := 0
	for i := 0; i < d.Len(); i++ {
		n += int(d.At(i).Count)
	}
	return n
}

// Shipped returns the prefix of the directory that travels with a page
// read.
func (d Directory) Shipped() Directory {
	if d.Len() > MaxShippedExtents {
		return d[:MaxShippedExtents*ExtentSize]
	}
	return d
}

// covers reports whether the extent names id, and in which slot.
func (e Extent) covers(id oid.OID) (int, bool) {
	if id < e.First || uint64(id-e.First) >= uint64(e.Count) {
		return 0, false
	}
	return int(e.Slot) + int(id-e.First), true
}

// Find returns the slot the directory names for id.
func (d Directory) Find(id oid.OID) (slot int, ok bool) {
	for i := 0; i < d.Len(); i++ {
		if slot, ok := d.At(i).covers(id); ok {
			return slot, true
		}
	}
	return 0, false
}

// Entries expands the directory into its (object, slot) pairs.
func (d Directory) Entries() []DirEntry {
	out := make([]DirEntry, 0, d.Objects())
	for i := 0; i < d.Len(); i++ {
		e := d.At(i)
		for k := uint16(0); k < e.Count; k++ {
			out = append(out, DirEntry{ID: e.First + oid.OID(k), Slot: e.Slot + k})
		}
	}
	return out
}

func appendExtent(d Directory, e Extent) Directory {
	var b [ExtentSize]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.First))
	binary.LittleEndian.PutUint16(b[8:], e.Slot)
	binary.LittleEndian.PutUint16(b[10:], e.Count)
	return append(d, b[:]...)
}

// BuildDirectory encodes the pairs as maximal extents. The pairs are
// sorted in place.
func BuildDirectory(entries []DirEntry) Directory {
	if len(entries) == 0 {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	var d Directory
	run := Extent{First: entries[0].ID, Slot: entries[0].Slot, Count: 1}
	for _, e := range entries[1:] {
		if e.ID == run.First+oid.OID(run.Count) && e.Slot == run.Slot+run.Count {
			run.Count++
			continue
		}
		d = appendExtent(d, run)
		run = Extent{First: e.ID, Slot: e.Slot, Count: 1}
	}
	return appendExtent(d, run)
}

// extents decodes the directory.
func (d Directory) extents() []Extent {
	out := make([]Extent, d.Len(), d.Len()+1)
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}

func encodeExtents(exts []Extent) Directory {
	if len(exts) == 0 {
		return nil
	}
	d := make(Directory, 0, len(exts)*ExtentSize)
	for _, e := range exts {
		d = appendExtent(d, e)
	}
	return d
}

// With returns the directory with id filed at slot, replacing whatever
// slot it named for id before. The new pair extends or joins the extents
// beside it when OID and slot both continue them.
func (d Directory) With(id oid.OID, slot int) Directory {
	exts := d.Without(id).extents()
	i := sort.Search(len(exts), func(i int) bool { return exts[i].First > id })
	s := uint16(slot)
	joinsPrev := i > 0 && exts[i-1].First+oid.OID(exts[i-1].Count) == id && exts[i-1].Slot+exts[i-1].Count == s
	joinsNext := i < len(exts) && exts[i].First == id+1 && exts[i].Slot == s+1
	switch {
	case joinsPrev && joinsNext:
		exts[i-1].Count += 1 + exts[i].Count
		exts = append(exts[:i], exts[i+1:]...)
	case joinsPrev:
		exts[i-1].Count++
	case joinsNext:
		exts[i] = Extent{First: id, Slot: s, Count: exts[i].Count + 1}
	default:
		exts = append(exts, Extent{})
		copy(exts[i+1:], exts[i:])
		exts[i] = Extent{First: id, Slot: s, Count: 1}
	}
	return encodeExtents(exts)
}

// Without returns the directory with id removed; d itself when it does
// not name id.
func (d Directory) Without(id oid.OID) Directory {
	for i := 0; i < d.Len(); i++ {
		e := d.At(i)
		slot, ok := e.covers(id)
		if !ok {
			continue
		}
		exts := d.extents()
		k := uint16(slot) - e.Slot
		head := Extent{First: e.First, Slot: e.Slot, Count: k}
		tail := Extent{First: id + 1, Slot: e.Slot + k + 1, Count: e.Count - k - 1}
		switch {
		case head.Count == 0 && tail.Count == 0:
			exts = append(exts[:i], exts[i+1:]...)
		case head.Count == 0:
			exts[i] = tail
		case tail.Count == 0:
			exts[i] = head
		default:
			exts = append(exts, Extent{})
			copy(exts[i+2:], exts[i+1:])
			exts[i], exts[i+1] = head, tail
		}
		return encodeExtents(exts)
	}
	return d
}

// Check validates an encoded directory: whole extents, none empty, sorted
// by OID without overlap, every slot below SlotLimit.
func (d Directory) Check() error {
	if len(d)%ExtentSize != 0 {
		return fmt.Errorf("%w: directory of %d bytes", ErrCorruptPage, len(d))
	}
	var end uint64 // one past the last OID seen
	for i := 0; i < d.Len(); i++ {
		e := d.At(i)
		if e.Count == 0 || int(e.Slot)+int(e.Count) > SlotLimit {
			return fmt.Errorf("%w: directory extent %d names slots [%d,%d+%d)", ErrCorruptPage, i, e.Slot, e.Slot, e.Count)
		}
		if i > 0 && uint64(e.First) < end {
			return fmt.Errorf("%w: directory extent %d out of order", ErrCorruptPage, i)
		}
		end = uint64(e.First) + uint64(e.Count)
		if end < uint64(e.First) {
			return fmt.Errorf("%w: directory extent %d overflows the OID space", ErrCorruptPage, i)
		}
	}
	return nil
}

// SlotLimit bounds the slot numbers of a page: one more than the most
// (empty) records a page can hold.
const SlotLimit = (Size - headerSize) / slotSize

// SplitImage splits what a page read returns — the page image, then the
// directory the server shipped with it, if any — and validates the
// directory. A bare image yields an empty directory.
func SplitImage(b []byte) (img []byte, dir Directory, err error) {
	if len(b) < Size || len(b) > MaxShippedLen {
		return nil, nil, fmt.Errorf("%w: page read of %d bytes, want %d to %d", ErrCorruptPage, len(b), Size, MaxShippedLen)
	}
	dir = Directory(b[Size:])
	if err := dir.Check(); err != nil {
		return nil, nil, err
	}
	return b[:Size:Size], dir, nil
}
