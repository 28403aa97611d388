package buffer

import (
	"sort"

	"gom/internal/oid"
	"gom/internal/page"
)

// The client half of page directories (DESIGN.md "Page directories"): a
// page read may carry, behind the image, the extent directory of the page
// — which OIDs live in which slots. The pool keeps each frame's directory
// with the frame and an ordered OID index over all of them, so an object
// fault whose page is already buffered resolves its address here instead
// of asking the server.
//
// Lifetime: a directory is filed when its frame is installed or its image
// replaced (Refresh), and dropped when the frame goes —
// eviction, coherence invalidation, DropAll, lease expiry, Discard. It is
// therefore exactly as coherent as the image it arrived with. The index
// only nominates a page; the slot is always read from the directory of
// the frame the caller ends up holding (Locate).

// dirIndex is the OID-ordered index over the directories of the buffered
// frames.
type dirIndex struct {
	ents []dirIndexEntry // sorted by first
}

// dirIndexEntry is one extent of one buffered page.
type dirIndexEntry struct {
	first oid.OID
	pid   page.PageID
	count uint16
}

// splitRead turns what a page read returned into the page and a private
// copy of its directory (the bytes read may be a slice of a whole
// read-run response, which the directory must not keep alive).
func splitRead(b []byte) (*page.Page, page.Directory, error) {
	img, dir, err := page.SplitImage(b)
	if err != nil {
		return nil, nil, err
	}
	pg, err := page.FromImage(img)
	if err != nil {
		return nil, nil, err
	}
	return pg, append(page.Directory(nil), dir...), nil
}

// search returns the position of the first entry with first > id.
func (x *dirIndex) search(id oid.OID) int {
	return sort.Search(len(x.ents), func(i int) bool { return x.ents[i].first > id })
}

// setDir replaces f's directory and refiles its extents.
func (x *dirIndex) setDir(f *Frame, dir page.Directory) {
	if len(f.dir) == 0 && len(dir) == 0 {
		return // the common case wherever no directories are shipped
	}
	for i := 0; i < f.dir.Len(); i++ {
		first := f.dir.At(i).First
		for j := x.search(first) - 1; j >= 0 && x.ents[j].first == first; j-- {
			if x.ents[j].pid == f.pid {
				x.ents = append(x.ents[:j], x.ents[j+1:]...)
				break
			}
		}
	}
	f.dir = dir
	for i := 0; i < dir.Len(); i++ {
		e := dir.At(i)
		j := x.search(e.First)
		x.ents = append(x.ents, dirIndexEntry{})
		copy(x.ents[j+1:], x.ents[j:])
		x.ents[j] = dirIndexEntry{first: e.First, pid: f.pid, count: e.Count}
	}
}

// reset empties the index (Discard drops every frame wholesale).
func (x *dirIndex) reset() { x.ents = nil }

// candidate returns the buffered page whose directory names id, if the
// index knows one.
func (x *dirIndex) candidate(id oid.OID) (page.PageID, bool) {
	j := x.search(id) - 1
	if j < 0 || uint64(id-x.ents[j].first) >= uint64(x.ents[j].count) {
		return 0, false
	}
	return x.ents[j].pid, true
}

// Locate resolves an object's address from the directories of the
// buffered pages: it returns the frame holding the object and its slot,
// having touched the frame like Get does. ok is false when no buffered
// page's directory names the object — the caller then asks the server.
func (p *Pool) Locate(id oid.OID) (f *Frame, slot int, ok bool, err error) {
	pid, ok := p.dirs.candidate(id)
	if !ok {
		return nil, 0, false, nil
	}
	if f, err = p.Get(pid); err != nil {
		return nil, 0, false, err
	}
	// The frame Get returned may be newer than the one the index nominated
	// (refreshed, or evicted and faulted again): only its own directory
	// says where the object is in its image.
	slot, ok = f.dir.Find(id)
	return f, slot, ok, nil
}

// Resolve answers what Locate would, without touching any frame.
func (p *Pool) Resolve(id oid.OID) (pid page.PageID, slot int, ok bool) {
	if pid, ok = p.dirs.candidate(id); !ok {
		return 0, 0, false
	}
	f := p.frames[pid]
	if f == nil {
		return 0, 0, false
	}
	slot, ok = f.dir.Find(id)
	return pid, slot, ok
}

// Directory returns the directory the frame's image arrived with, empty
// when the server shipped none.
func (p *Pool) Directory(f *Frame) page.Directory { return f.dir }

// DirectoryExtents returns the number of extents the index holds over all
// buffered pages.
func (p *Pool) DirectoryExtents() int { return len(p.dirs.ents) }
