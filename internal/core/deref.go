package core

import (
	"errors"
	"fmt"

	"gom/internal/buffer"
	"gom/internal/metrics"
	"gom/internal/objcache"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/sim"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// deref resolves the reference in a slot to its resident object, faulting
// it in if necessary, under the slot's strategy. This is the access path
// whose per-state costs reproduce Table 5:
//
//	EDS: follow the pointer                      (no extra charge)
//	LDS: software state check, follow pointer    (+LazyCheck)
//	EIS: descriptor indirection, residency check (+Indirection)
//	LIS: both                                    (+LazyCheck +Indirection)
//	NOS: ROT hash lookup                         (+ROTLookup)
//
// A swizzled-strategy slot found unswizzled (its target was displaced, or
// it has not been discovered yet) is swizzled here; that is the paper's
// m(st)·SW term, and for LDS it is exactly the re-swizzling the hot
// Traversals of §6.3 suffer from under paging.
func (om *OM) deref(slot object.Slot, strat swizzle.Strategy, score *ctxScore) (*object.MemObject, error) {
	r := slot.Ref()
	if r.IsNil() {
		return nil, ErrNilRef
	}
	costs := om.meter.Costs()
	if strat.Lazy() {
		om.meter.Charge(costs.LazyCheck)
	}
	if r.State() == object.RefOID && strat.Swizzles() {
		// A swizzled-strategy slot holding an OID: not yet discovered, or
		// unswizzled when its target was displaced. (Re-)swizzle it; the
		// slot is updated in place, so the switch below sees the new state.
		if err := om.swizzleSlot(slot, strat, score); err != nil {
			return nil, err
		}
	}
	switch r.State() {
	case object.RefDirect:
		obj := r.Ptr()
		if obj.Stale {
			// Cannot happen when the stale-fix snowball invariant holds
			// (fixing an object fixes the targets of its direct refs), but
			// kept as a safety net.
			if err := om.fixRepresentation(obj); err != nil {
				return nil, err
			}
		}
		return obj, nil

	case object.RefIndirect:
		om.count(metrics.CtrDescriptorIndirection)
		om.meter.Charge(costs.Indirection)
		om.meter.Add(sim.CntResidencyCheck, 1)
		d := r.Desc()
		if !d.Valid() {
			om.scoreInc(score, metrics.ScoreFault)
			target, err := om.ensureResident(d.OID)
			if err != nil {
				return nil, err
			}
			if d.Ptr == nil {
				// The fault revalidates the table descriptor; relink this
				// one defensively if it is not the table's.
				d.Ptr = target
			}
		}
		obj := d.Ptr
		if obj.Stale {
			if err := om.fixRepresentation(obj); err != nil {
				return nil, err
			}
		}
		return obj, nil

	case object.RefOID:
		// No-swizzling: consult the ROT on every access (§3.1).
		om.count(metrics.CtrROTLookup)
		om.meter.Event(sim.CntROTLookup, costs.ROTLookup)
		obj := om.rot.Lookup(r.OID())
		if obj == nil {
			om.meter.Add(sim.CntROTMiss, 1)
			om.scoreInc(score, metrics.ScoreFault)
			return om.objectFault(r.OID())
		}
		om.meter.Add(sim.CntROTHit, 1)
		if obj.Stale {
			if err := om.fixRepresentation(obj); err != nil {
				return nil, err
			}
		}
		return obj, nil
	}
	return nil, ErrNilRef
}

// withPinned pins the object (or its page) for the duration of fn, so that
// faults performed inside fn cannot displace it while slots into it are
// being manipulated.
func (om *OM) withPinned(obj *object.MemObject, fn func() error) error {
	if om.rot.Lookup(obj.OID) != obj {
		return fn()
	}
	om.pinResident(obj)
	defer om.unpinResident(obj)
	return fn()
}

// ensureResident returns the resident object for id, faulting it if
// needed. It does not charge a ROT lookup; callers that model one charge
// it themselves.
func (om *OM) ensureResident(id oid.OID) (*object.MemObject, error) {
	if obj := om.rot.Lookup(id); obj != nil {
		if obj.Stale {
			if err := om.fixRepresentation(obj); err != nil {
				return nil, err
			}
		}
		return obj, nil
	}
	return om.objectFault(id)
}

// objectFault brings an object into the client (§3.2.1): resolve the OID
// to its physical address, fault the page into the buffer pool,
// materialize the in-memory object (copying it into the object cache in
// the copy architecture), register it in the ROT, revalidate its
// descriptor, and — under eager granules — scan through it and swizzle
// its references.
//
// The address comes from the directory of a buffered page when one names
// the object (DESIGN.md "Page directories": no server interaction at all),
// else from a batched-lookup hint, else from a Lookup at the server. A
// server that ships no directories leaves the pool's index empty, and
// every fault takes the Lookup.
func (om *OM) objectFault(id oid.OID) (*object.MemObject, error) {
	if sp := om.spans.StartChild(spanObjectFault, om.TraceContext()); sp.Sampled() {
		sp.SetArgs(uint64(id), 0)
		ctx := sp.Context()
		prev := om.curCtx.Swap(&ctx)
		defer func() {
			om.curCtx.Store(prev)
			sp.Finish()
		}()
	}
	om.publish() // a monitor sees the reads that led here before the fault
	om.obs.Inc(metrics.CtrObjectFault)
	om.meter.Add(sim.CntObjectFault, 1)
	if om.spec.PerObjectCall() {
		// The late-bound type-specific fetch procedure (§4.2.2, FC).
		om.meter.Event(sim.CntFetchCall, om.meter.Costs().FetchCall)
	}
	frame, slot, ok, err := om.pool.Locate(id)
	if err != nil {
		return nil, err
	}
	if ok {
		obj, err := om.decodeAt(id, frame, slot)
		if err != nil {
			return nil, err
		}
		om.obs.Inc(metrics.CtrObjectFaultLocal)
		return om.registerFault(obj, storage.PAddr{Page: frame.PageID(), Slot: uint16(slot)})
	}
	addr, hinted := om.addrHints[id]
	if hinted {
		// A batched lookup already resolved this OID: no per-object
		// round-trip. A stale hint (the object moved since) is refused by
		// materialize and falls back to the authoritative lookup below.
		delete(om.addrHints, id)
	} else {
		addr, err = om.srv.Lookup(id)
		if err != nil {
			return nil, err
		}
		om.meter.Add(sim.CntServerRoundTrip, 1)
	}
	obj, err := om.materialize(id, addr, hinted)
	if err != nil && hinted {
		addr, err = om.srv.Lookup(id)
		if err != nil {
			return nil, err
		}
		om.meter.Add(sim.CntServerRoundTrip, 1)
		obj, err = om.materialize(id, addr, false)
	}
	if err != nil {
		return nil, err
	}
	om.obs.Inc(metrics.CtrObjectFaultRPC)
	return om.registerFault(obj, addr)
}

// errStaleHint refuses a batched-lookup hint that the page it points at
// contradicts.
var errStaleHint = errors.New("core: stale address hint")

// materialize faults addr's page and decodes the object record, without
// registering any client state — a failure leaves nothing behind, so a
// caller holding a possibly-stale address hint can retry safely. A hinted
// address is checked against the page's directory when the page came with
// one: a slot reused by another object of the same type would otherwise
// decode silently.
func (om *OM) materialize(id oid.OID, addr storage.PAddr, hinted bool) (*object.MemObject, error) {
	frame, err := om.pool.Get(addr.Page)
	if err != nil {
		return nil, err
	}
	if hinted {
		if dir := om.pool.Directory(frame); len(dir) > 0 {
			if slot, named := dir.Find(id); !named || slot != int(addr.Slot) {
				return nil, errStaleHint
			}
		}
	}
	return om.decodeAt(id, frame, int(addr.Slot))
}

// decodeAt decodes the object record in a slot of a buffered page.
func (om *OM) decodeAt(id oid.OID, frame *buffer.Frame, slot int) (*object.MemObject, error) {
	rec, err := frame.Page.Read(slot)
	if err != nil {
		return nil, fmt.Errorf("core: object %v at %v/%d: %w", id, frame.PageID(), slot, err)
	}
	return object.Decode(om.schema, id, rec)
}

// registerFault installs a freshly materialized object in the client
// run-time: ROT registration, cache/residency bookkeeping, descriptor
// revalidation, and the eager swizzling scan.
func (om *OM) registerFault(obj *object.MemObject, addr storage.PAddr) (*object.MemObject, error) {
	id := obj.OID
	obj.Page, obj.Slot = addr.Page, addr.Slot
	om.rot.Register(obj)
	if om.cache != nil {
		if err := om.cache.Put(obj); err != nil {
			om.rot.Unregister(id)
			if errors.Is(err, objcache.ErrAllPinned) {
				return nil, fmt.Errorf("%w: %v", ErrNoCapacity, err)
			}
			return nil, err
		}
	} else {
		om.byPage[addr.Page] = append(om.byPage[addr.Page], obj)
	}
	// Revalidate an existing descriptor: indirect references swizzled
	// while the object was absent resolve again (Fig. 3). The object carries
	// it from here on.
	if d := om.descs[id]; d != nil {
		delete(om.descs, id)
		d.Ptr = obj
		obj.Desc = d
	}
	// Eager swizzling: scan through the object (§3.2.1). The home is
	// pinned so the recursive loading of EDS granules (the snowball)
	// cannot displace it mid-scan.
	if err := om.eagerScan(obj); err != nil {
		return nil, err
	}
	return obj, nil
}

// eagerScan swizzles every eager-granule reference of a freshly faulted
// (or representation-fixed) object.
func (om *OM) eagerScan(obj *object.MemObject) error {
	var slots []object.Slot
	obj.Refs(func(s object.Slot) {
		if !s.Ref().IsNil() && s.Ref().State() == object.RefOID && om.spec.ForSlot(s).Eager() {
			slots = append(slots, s)
		}
	})
	if len(slots) == 0 {
		return nil
	}
	om.primeHints(slots)
	om.pinResident(obj)
	defer om.unpinResident(obj)
	for _, s := range slots {
		// A previous iteration's snowball may have displaced nothing from
		// this pinned object, but the slot may have been swizzled as part
		// of a cycle; skip it then.
		if s.Ref().State() != object.RefOID {
			continue
		}
		if err := om.swizzleSlot(s, om.spec.ForSlot(s), om.slotScore(s)); err != nil {
			return err
		}
	}
	return nil
}

// primeHints resolves the physical addresses of the slots' non-resident
// targets in one batched round-trip (the server's BatchLookuper
// capability), so the per-slot faults that follow skip their individual
// Lookup RPCs — eager swizzling resolves a page's worth of references at
// a time instead of one round-trip per reference.
func (om *OM) primeHints(slots []object.Slot) {
	if om.batcher == nil || len(slots) < 2 {
		return
	}
	seen := make(map[oid.OID]struct{}, len(slots))
	want := make([]oid.OID, 0, len(slots))
	for _, s := range slots {
		id := s.Ref().OID()
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if _, hinted := om.addrHints[id]; hinted {
			continue
		}
		if om.rot.Lookup(id) != nil {
			continue
		}
		if _, _, ok := om.pool.Resolve(id); ok {
			continue // its fault will resolve from a buffered page
		}
		want = append(want, id)
	}
	if len(want) < 2 {
		return // a single lookup gains nothing from batching
	}
	addrs, found, err := om.batcher.LookupBatch(want)
	if err != nil || len(addrs) != len(want) || len(found) != len(want) {
		return // degrade to per-object lookups
	}
	om.meter.Add(sim.CntServerRoundTrip, 1)
	for i, id := range want {
		if found[i] {
			om.addrHints[id] = addrs[i]
		}
	}
}

// pinResident pins a resident object (copy architecture) or its page (page
// architecture) against replacement.
func (om *OM) pinResident(obj *object.MemObject) {
	if om.cache != nil {
		obj.Pin()
		return
	}
	_ = om.pool.Pin(obj.Page)
}

func (om *OM) unpinResident(obj *object.MemObject) {
	if om.cache != nil {
		obj.Unpin()
		return
	}
	_ = om.pool.Unpin(obj.Page)
}

// swizzleSlot converts an unswizzled slot to the strategy's representation
// (the SW cost function, Table 6). Direct swizzling requires — and brings
// about — residency of the target, which for EDS granules is the eager
// loading of the transitive closure (§3.2.2). Indirect swizzling installs
// a descriptor and never loads.
func (om *OM) swizzleSlot(slot object.Slot, strat swizzle.Strategy, score *ctxScore) error {
	r := slot.Ref()
	if r.State() != object.RefOID || !strat.Swizzles() {
		return nil
	}
	id := r.OID()
	costs := om.meter.Costs()
	if strat.Direct() {
		if !om.tableCanSwizzleDirect(slot) {
			// Swizzle table full: the reference stays an OID and behaves
			// like no-swizzling until capacity frees up (§3.2.2).
			return nil
		}
		if strat == swizzle.EDS {
			om.meter.Add(sim.CntSnowballLoad, 1)
		}
		if om.rot.Lookup(id) == nil {
			// Direct swizzling forces residency: charge the fault to this
			// context on the scoreboard.
			om.scoreInc(score, metrics.ScoreFault)
		}
		target, err := om.ensureResident(id)
		if err != nil {
			return err
		}
		if !om.tableCanSwizzleDirect(slot) {
			// Loading the target may itself have filled the table (eager
			// scans of nested faults); re-check before converting.
			return nil
		}
		om.obs.Inc(swizzleCounter(strat))
		om.scoreInc(score, metrics.ScoreSwizzle)
		om.meter.Event(sim.CntSwizzleDirect, costs.SwizzleDirect)
		om.registerDirect(slot, target)
		*slot.Ref() = object.DirectRef(target)
		return nil
	}
	// Indirect: find or allocate the descriptor.
	d := om.descriptorRef(id)
	om.obs.Inc(swizzleCounter(strat))
	om.scoreInc(score, metrics.ScoreSwizzle)
	om.meter.Event(sim.CntSwizzleIndirect, costs.SwizzleIndirect)
	*slot.Ref() = object.IndirectRef(d)
	return nil
}

// registerDirect adds the slot to the target's RRL, charging maintenance
// and block allocation (§5.3: entries come in blocks of 10). Variable
// slots are tracked but not charged: the paper's run-time model finds
// local variables by scanning the stack when an object is displaced
// (§5.3), so copying a direct reference into a variable costs nothing at
// copy time — the list entry here stands in for the stack scan.
func (om *OM) registerDirect(slot object.Slot, target *object.MemObject) {
	if om.pagewise {
		om.pageRegisterDirect(slot, target)
		return
	}
	if om.swizzleTableCap > 0 {
		om.tableRegisterDirect(slot)
		return
	}
	if target.RRL == nil {
		target.RRL = &object.RRL{}
	}
	newBlock := target.RRL.Add(slot)
	if slot.IsVar() {
		return
	}
	costs := om.meter.Costs()
	if newBlock {
		om.meter.Event(sim.CntRRLAlloc, costs.RRLAlloc)
	}
	om.meter.Event(sim.CntRRLInsert, costs.RRLMaintain)
}

// unregisterDirect removes the slot from the target's RRL. The removal
// scans the list, which is what makes direct-swizzling costs grow with
// fan-in (Table 6, Fig. 11a). Variable slots are uncharged (stack-scan
// model, see registerDirect).
func (om *OM) unregisterDirect(slot object.Slot, target *object.MemObject) {
	if om.pagewise {
		om.pageUnregisterDirect(slot, target)
		return
	}
	if om.swizzleTableCap > 0 {
		om.tableUnregisterDirect(slot)
		return
	}
	l := target.RRL
	if l == nil {
		return
	}
	costs := om.meter.Costs()
	if n := l.Len(); l.Remove(slot) && !slot.IsVar() {
		// Charge proportionally to half the list scanned on average.
		om.meter.Event(sim.CntRRLRemove, costs.RRLMaintain*(1+float64(n)/2))
	}
	if l.Len() == 0 {
		target.RRL = nil
		if !slot.IsVar() {
			om.meter.Event(sim.CntRRLFree, costs.RRLFree)
		}
	}
}

// findDescriptor returns the descriptor for an OID, or nil, and the target
// if it is resident: a resident object carries its descriptor, the table
// holds the others.
func (om *OM) findDescriptor(id oid.OID) (*object.Descriptor, *object.MemObject) {
	if obj := om.rot.Lookup(id); obj != nil {
		return obj.Desc, obj
	}
	return om.descs[id], nil
}

// newDescriptor allocates the descriptor for an OID and files it where
// findDescriptor looks: on the resident target (nil if there is none),
// linked and valid, or in the table.
func (om *OM) newDescriptor(id oid.OID, target *object.MemObject) *object.Descriptor {
	d := &object.Descriptor{OID: id, Ptr: target}
	if target != nil {
		target.Desc = d
	} else {
		om.descs[id] = d
	}
	return d
}

// dropDescriptor removes a reclaimed descriptor from wherever it is filed.
func (om *OM) dropDescriptor(d *object.Descriptor) {
	if d.Ptr != nil {
		d.Ptr.Desc = nil
	} else {
		delete(om.descs, d.OID)
	}
}

// descriptorRef returns the descriptor for an OID with one more fan-in
// reference, allocating (and charging) one if none exists. A resident target
// gets linked immediately.
func (om *OM) descriptorRef(id oid.OID) *object.Descriptor {
	d, target := om.findDescriptor(id)
	if d == nil {
		d = om.newDescriptor(id, target)
		om.meter.EventP(sim.CntDescAlloc, om.pc.DescAlloc)
	}
	d.FanIn++
	return d
}

// releaseDescriptor drops one fan-in reference; at zero the descriptor is
// reclaimed (§3.2.2: "to reclaim unused descriptors, every descriptor
// keeps a counter").
func (om *OM) releaseDescriptor(d *object.Descriptor) {
	d.FanIn--
	if d.FanIn > 0 || om.retainDescriptors {
		return
	}
	om.dropDescriptor(d)
	om.meter.EventP(sim.CntDescFree, om.pc.DescFree)
}

// unswizzleSlot converts a swizzled slot back to an OID (the US cost
// function), maintaining RRL or descriptor bookkeeping.
func (om *OM) unswizzleSlot(slot object.Slot) {
	r := slot.Ref()
	costs := om.meter.Costs()
	switch r.State() {
	case object.RefDirect:
		target := r.Ptr()
		om.unregisterDirect(slot, target)
		*slot.Ref() = object.OIDRef(target.OID)
		om.obs.Inc(metrics.CtrUnswizzle)
		om.meter.Event(sim.CntUnswizzleDirect, costs.UnswizzleDirect)
	case object.RefIndirect:
		d := r.Desc()
		om.releaseDescriptor(d)
		*slot.Ref() = object.OIDRef(d.OID)
		om.obs.Inc(metrics.CtrUnswizzle)
		om.meter.Event(sim.CntUnswizzleIndirect, costs.UnswizzleIndirect)
	}
}

// unregisterSlot removes the slot's swizzling bookkeeping without
// rewriting the reference (used when the slot itself is going away: a
// freed variable, a displaced home object).
func (om *OM) unregisterSlot(slot object.Slot) {
	r := slot.Ref()
	switch r.State() {
	case object.RefDirect:
		om.unregisterDirect(slot, r.Ptr())
	case object.RefIndirect:
		om.releaseDescriptor(r.Desc())
	}
}

// assignRef stores a source reference into a destination slot, converting
// between layouts as required (the translations of §4.2.3, Table 8) and
// maintaining all bookkeeping. The source is not disturbed. target is the
// resident object a direct destination will point at when the caller has
// resolved it already (the hit path, which must not fault: planAssign);
// with nil it is resolved here, faulting it in if need be.
//
// Registration order matters: the new value is built and registered before
// the old value is released, so that when source and destination share a
// target (self-assignment, redirect-to-same), fan-in never transiently
// reaches zero and reclaims a descriptor that is still referenced.
func (om *OM) assignRef(dst object.Slot, dstStrat swizzle.Strategy, src *object.Ref, target *object.MemObject) error {
	old := *dst.Ref() // value copy; released at the end
	if err := om.installRef(dst, dstStrat, src, target); err != nil {
		return err
	}
	// Release the old value's bookkeeping. The RRL entry is matched by the
	// slot tuple, so removal works although the slot now holds the new
	// value.
	switch old.State() {
	case object.RefDirect:
		om.unregisterDirect(dst, old.Ptr())
	case object.RefIndirect:
		om.releaseDescriptor(old.Desc())
	}
	return nil
}

// installRef is the first half of assignRef: it writes the new value and
// registers it.
func (om *OM) installRef(dst object.Slot, dstStrat swizzle.Strategy, src *object.Ref, target *object.MemObject) error {
	if src.IsNil() {
		*dst.Ref() = object.NilRef
		return nil
	}
	want := dstStrat.TargetState()
	if dstStrat.Lazy() && src.State() == object.RefOID {
		// Lazy destinations adopt an unswizzled source as-is;
		// swizzling happens upon discovery.
		want = object.RefOID
	}
	if want == object.RefDirect && !om.tableCanSwizzleDirect(dst) {
		// Swizzle table full: degrade the destination to an OID.
		want = object.RefOID
	}
	if src.State() == want {
		// Same layout: copy, then register the new slot.
		v := *src // copy first: src may alias dst
		*dst.Ref() = v
		switch want {
		case object.RefDirect:
			om.registerDirect(dst, v.Ptr())
		case object.RefIndirect:
			v.Desc().FanIn++
		}
		return nil
	}
	// Layout conversion.
	switch want {
	case object.RefOID:
		om.meter.EventP(sim.CntTranslate, om.pc.TranslateSwizzledToOID)
		*dst.Ref() = object.OIDRef(src.TargetOID())
	case object.RefDirect:
		if src.State() == object.RefOID {
			om.meter.EventP(sim.CntTranslate, om.pc.TranslateOIDToSwizzled)
		} else {
			om.meter.EventP(sim.CntTranslate, om.pc.TranslateSwizzled)
		}
		if target == nil {
			if src.State() == object.RefIndirect && src.Desc().Valid() {
				target = src.Desc().Ptr
			} else {
				var err error
				if target, err = om.ensureResident(src.TargetOID()); err != nil {
					return err
				}
			}
		}
		if !om.tableCanSwizzleDirect(dst) {
			// The fault may have filled the table; degrade to an OID.
			*dst.Ref() = object.OIDRef(target.OID)
			break
		}
		om.registerDirect(dst, target)
		*dst.Ref() = object.DirectRef(target)
	case object.RefIndirect:
		if src.State() == object.RefOID {
			om.meter.EventP(sim.CntTranslate, om.pc.TranslateOIDToSwizzled)
		} else {
			om.meter.EventP(sim.CntTranslate, om.pc.TranslateSwizzled)
		}
		*dst.Ref() = object.IndirectRef(om.descriptorRef(src.TargetOID()))
	}
	return nil
}
