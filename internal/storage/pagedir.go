package storage

import (
	"bytes"
	"errors"
	"fmt"

	"gom/internal/oid"
	"gom/internal/page"
)

// Page directories (DESIGN.md "Page directories"): every page is published
// with the extent directory of its slots — the reverse of the POT for that
// page — so the page server can ship, with the image, the addresses of the
// objects on it. The four mutation sites (Allocate, AllocateNear, a
// relocating Update, Delete) publish image and directory together
// (Disk.writePageDir); load and recovery rebuild every directory from one
// pass over the POT. Directories are not persisted.

// potByPage is the POT reversed: the (object, slot) pairs of every page.
func (m *Manager) potByPage() map[page.PageID][]page.DirEntry {
	byPage := make(map[page.PageID][]page.DirEntry)
	m.pot.Range(func(id oid.OID, addr PAddr) bool {
		byPage[addr.Page] = append(byPage[addr.Page], page.DirEntry{ID: id, Slot: addr.Slot})
		return true
	})
	return byPage
}

// eachPage calls fn for every page of every segment.
func (m *Manager) eachPage(fn func(page.PageID) error) error {
	for _, seg := range m.disk.Segments() {
		n, err := m.disk.NumPages(seg)
		if err != nil {
			return err
		}
		for no := 0; no < n; no++ {
			if err := fn(page.NewPageID(seg, uint64(no))); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuildDirectories sets every page's directory from the POT. The caller
// has the manager to itself (load, recovery).
func (m *Manager) rebuildDirectories() error {
	byPage := m.potByPage()
	return m.eachPage(func(pid page.PageID) error {
		return m.disk.setDirectory(pid, page.BuildDirectory(byPage[pid]))
	})
}

// VerifyDirectories checks the page directories against their
// specification: each page's directory is exactly the POT reversed for
// that page, and every slot it names holds a record in the page's current
// image. It takes the manager exclusively; tests call it at quiescent
// points (after load, after recovery, after a concurrent run).
func (m *Manager) VerifyDirectories() error {
	m.quiesce.Lock()
	defer m.quiesce.Unlock()
	byPage := m.potByPage()
	var errs []error
	err := m.eachPage(func(pid page.PageID) error {
		st, err := m.disk.slot(pid)
		if err != nil {
			return err
		}
		cur := st.cur.Load()
		want := page.BuildDirectory(byPage[pid])
		delete(byPage, pid)
		if !bytes.Equal(cur.dir, want) {
			errs = append(errs, fmt.Errorf("storage: page %v directory names %v, the POT says %v",
				pid, cur.dir.Entries(), want.Entries()))
		}
		p, err := page.FromImage(cur.img)
		if err != nil {
			return err
		}
		for _, e := range cur.dir.Entries() {
			if !p.Live(int(e.Slot)) {
				errs = append(errs, fmt.Errorf("storage: page %v directory names %v in dead slot %d", pid, e.ID, e.Slot))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for pid := range byPage {
		errs = append(errs, fmt.Errorf("storage: the POT places objects on page %v, which does not exist", pid))
	}
	return errors.Join(errs...)
}

// DirectoryStats reports what the page directories cost: pages, extents,
// and the bytes they hold (encoded extents plus one slice header a page).
func (m *Manager) DirectoryStats() (pages, extents, size int) {
	const sliceHeader = 24
	_ = m.eachPage(func(pid page.PageID) error {
		st, err := m.disk.slot(pid)
		if err != nil {
			return err
		}
		dir := st.cur.Load().dir
		pages++
		extents += dir.Len()
		size += len(dir) + sliceHeader
		return nil
	})
	return pages, extents, size
}
