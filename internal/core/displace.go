package core

import (
	"errors"
	"fmt"

	"gom/internal/buffer"
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/sim"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// onPageEvict is the page-buffer eviction hook (page architecture): every
// object materialized from the victim page is displaced before the page
// leaves the buffer. The hook runs while the frame is still in the pool,
// so dirty objects are written back into the very image about to be
// shipped.
func (om *OM) onPageEvict(pid page.PageID, _ *buffer.Frame) {
	om.dropHints(pid)
	objs := om.byPage[pid]
	delete(om.byPage, pid)
	for _, obj := range objs {
		if err := om.displace(obj, true); err != nil {
			// Displacement failures (server write errors) cannot be
			// surfaced through the hook; record them for the next API
			// call to report.
			om.deferredErr = errors.Join(om.deferredErr, err)
		}
	}
}

// dropHints forgets the batched-lookup hints that point into a page whose
// buffered image is going away or has been overtaken by a remote write:
// the image the hinted fault will read is not the one the hint was good
// for.
func (om *OM) dropHints(pid page.PageID) {
	for id, addr := range om.addrHints {
		if addr.Page == pid {
			delete(om.addrHints, id)
		}
	}
}

// onCacheEvict is the object-cache eviction hook (copy architecture).
func (om *OM) onCacheEvict(obj *object.MemObject) {
	if err := om.displace(obj, true); err != nil {
		om.deferredErr = errors.Join(om.deferredErr, err)
	}
}

// takeDeferredErr surfaces errors that occurred inside eviction hooks.
func (om *OM) takeDeferredErr() error {
	if om.cohFlag.Load() {
		// Apply queued coherence invalidations before the operation reads
		// any object state: pages rewritten by other clients are dropped
		// and their resident objects displaced, so this operation (which
		// started after the invalidation was acknowledged) cannot serve
		// the old images.
		om.applyInvalidations()
	}
	err := om.deferredErr
	om.deferredErr = nil
	return err
}

// displace removes an object's in-memory representation (§3.2.2: the
// "precautions" in action):
//
//  1. a dirty object is written back,
//  2. its own swizzled references are unswizzled (updating the targets'
//     RRLs and descriptors),
//  3. every directly swizzled reference to it — found via its RRL — is
//     unswizzled; under eager-direct granules the referencing home objects
//     are displaced too (the reverse snowball, §3.2.2), because eager
//     swizzling must not leave unswizzled references in registered
//     objects,
//  4. its descriptor, if any, is marked invalid (indirect references stay
//     swizzled, Fig. 3),
//  5. it is unregistered from the ROT.
//
// fromHook is true when the call originates from a buffer eviction hook,
// in which case the container already removes the entry itself.
func (om *OM) displace(obj *object.MemObject, fromHook bool) error {
	if om.displacing[obj.OID] {
		return nil
	}
	if om.rot.Lookup(obj.OID) != obj {
		return nil // already displaced (or a re-registered successor exists)
	}
	om.displacing[obj.OID] = true
	defer delete(om.displacing, obj.OID)
	om.obs.Inc(metrics.CtrDisplacement)

	if obj.Dirty {
		if _, err := om.writeBack(obj); err != nil {
			return err
		}
	}

	// (2) Outgoing references.
	var out []object.Slot
	obj.Refs(func(s object.Slot) {
		if s.Ref().Swizzled() {
			out = append(out, s)
		}
	})
	for _, s := range out {
		// Swizzling work in this context is being thrown away while the
		// reference may still be live: the advisor's drift signal.
		om.scoreInc(om.slotScore(s), metrics.ScoreDisplacedInUse)
		om.unswizzleSlot(s)
	}

	// (3) Incoming direct references — via the precise RRL, or by the
	// pagewise scan of §5.3.
	var cascade []*object.MemObject
	costs := om.meter.Costs()
	var incoming []object.Slot
	switch {
	case om.pagewise:
		incoming = om.pageIncomingSlots(obj)
	case om.swizzleTableCap > 0:
		incoming = om.tableIncomingSlots(obj)
	case obj.RRL != nil:
		incoming = obj.RRL.Drain()
	}
	for _, s := range incoming {
		r := s.Ref()
		if r.State() != object.RefDirect || r.Ptr() != obj {
			continue // slot was rewritten; stale entry
		}
		if om.pagewise {
			// Keep the page-level counters balanced.
			om.pageUnregisterDirect(s, obj)
		}
		if om.swizzleTableCap > 0 {
			om.tableUnregisterDirect(s)
		}
		*r = object.OIDRef(obj.OID)
		om.scoreInc(om.slotScore(s), metrics.ScoreDisplacedInUse)
		om.obs.Inc(metrics.CtrUnswizzle)
		om.meter.Event(sim.CntUnswizzleDirect, costs.UnswizzleDirect)
		if !s.IsVar() && om.spec.ForSlot(s) == swizzle.EDS {
			cascade = append(cascade, s.Home)
		}
	}
	if !om.pagewise && obj.RRL != nil {
		obj.RRL = nil
		om.meter.Event(sim.CntRRLFree, costs.RRLFree)
	}

	// (4) Descriptor invalidation.
	if d := obj.Desc; d != nil {
		d.Ptr = nil
		om.meter.Add(sim.CntDescInvalidate, 1)
		obj.Desc = nil
		om.descs[obj.OID] = d // the table keeps it until the next fault
	}

	// (5) Unregister.
	om.rot.Unregister(obj.OID)
	if om.cache != nil {
		if !fromHook {
			om.cache.Remove(obj.OID)
		}
	} else {
		om.meter.Add(sim.CntObjectEvict, 1)
		om.removeFromPage(obj.Page, obj)
	}

	// Reverse snowball: eager-direct homes must not stay registered with
	// unswizzled references. A pinned home cannot be displaced; its
	// reference was unswizzled above and is repaired on next access (the
	// softened invariant the access path of deref handles).
	for _, home := range cascade {
		if om.rot.Lookup(home.OID) != home || home.Pinned() {
			continue
		}
		if om.cache == nil {
			if f := om.pool.Peek(home.Page); f != nil && f.Pinned() {
				continue
			}
		}
		if err := om.displace(home, false); err != nil {
			return err
		}
	}
	return nil
}

// removeFromPage drops the object from the page-architecture residency
// list; tolerant of the list having been removed wholesale by the hook.
func (om *OM) removeFromPage(pid page.PageID, obj *object.MemObject) {
	objs, ok := om.byPage[pid]
	if !ok {
		return
	}
	for i, o := range objs {
		if o == obj {
			objs[i] = objs[len(objs)-1]
			om.byPage[pid] = objs[:len(objs)-1]
			return
		}
	}
}

// writeBack persists a dirty object. In the copy architecture the record
// goes to the server directly; in the page architecture it is written into
// the buffered page image, falling back to a server-side relocation when
// the record has outgrown its page (logical OIDs make the move invisible
// to references, §3.3). It reports whether the object was relocated — in
// the page architecture a relocated object's new page is not buffered, so
// callers that keep the object resident must displace it (it refaults
// from its new page on next access).
func (om *OM) writeBack(obj *object.MemObject) (relocated bool, err error) {
	rec, err := object.Encode(obj)
	if err != nil {
		return false, err
	}
	costs := om.meter.Costs()
	frame := om.pool.Peek(obj.Page)
	if frame == nil {
		// No buffered copy of the page (the common case in the copy
		// architecture once the page cycled out): rewrite server-side. In
		// the page architecture a resident object's page is always
		// buffered, so this is purely defensive there.
		addr, err := om.srv.UpdateObject(obj.OID, rec)
		if err != nil {
			return false, err
		}
		om.meter.Event(sim.CntPageWrite, costs.PageIO)
		om.meter.Add(sim.CntServerRoundTrip, 1)
		moved := addr != storage.PAddr{Page: obj.Page, Slot: obj.Slot}
		om.relocateResident(obj, addr)
		obj.Dirty = false
		return moved, nil
	}
	uerr := frame.Page.Update(int(obj.Slot), rec)
	if uerr == nil {
		frame.MarkDirty()
		obj.Dirty = false
		return false, nil
	}
	if !errors.Is(uerr, page.ErrPageFull) {
		return false, uerr
	}
	// The record outgrew its page: ship our copy of the page, relocate
	// server-side, then refresh the affected buffered pages.
	oldPage := obj.Page
	frame.MarkDirty()
	if err := om.pool.Flush(oldPage); err != nil {
		return false, err
	}
	addr, err := om.srv.UpdateObject(obj.OID, rec)
	if err != nil {
		return false, err
	}
	om.meter.Event(sim.CntPageWrite, costs.PageIO)
	om.meter.Add(sim.CntServerRoundTrip, 1)
	if err := om.pool.Refresh(oldPage); err != nil {
		return false, err
	}
	if addr.Page != oldPage && om.pool.Contains(addr.Page) {
		if err := om.pool.Refresh(addr.Page); err != nil {
			return false, err
		}
	}
	om.relocateResident(obj, addr)
	obj.Dirty = false
	return addr.Page != oldPage, nil
}

// relocateResident moves the residency bookkeeping of an object whose
// physical address changed.
func (om *OM) relocateResident(obj *object.MemObject, addr storage.PAddr) {
	if om.cache == nil {
		om.removeFromPage(obj.Page, obj)
		om.byPage[addr.Page] = append(om.byPage[addr.Page], obj)
	}
	if om.pagewise {
		// Incoming references to the object were registered under its old
		// page; copy the hints so displacement scans still find the
		// referencing pages (over-approximation is safe). Its *outgoing*
		// direct references are registered under the old page as the home
		// side — re-register them under the new page.
		var outgoing []object.Slot
		obj.Refs(func(s object.Slot) {
			if s.Ref().State() == object.RefDirect {
				outgoing = append(outgoing, s)
			}
		})
		for _, s := range outgoing {
			om.pageUnregisterDirect(s, s.Ref().Ptr())
		}
		om.pageMergeHints(obj.Page, addr.Page)
		obj.Page, obj.Slot = addr.Page, addr.Slot
		for _, s := range outgoing {
			om.pageRegisterDirect(s, s.Ref().Ptr())
		}
		return
	}
	obj.Page, obj.Slot = addr.Page, addr.Slot
}

// DisplaceObject displaces one resident object by OID (exposed for tests
// and for applications that want to shed buffer space explicitly, e.g.
// the long design transactions of §1 that periodically adjust their
// working set).
func (om *OM) DisplaceObject(id oid.OID) error {
	if err := om.takeDeferredErr(); err != nil {
		return err
	}
	obj := om.rot.Lookup(id)
	if obj == nil {
		return fmt.Errorf("core: %v not resident", id)
	}
	return om.displace(obj, false)
}
