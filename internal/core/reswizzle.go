package core

import (
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/sim"
)

// fixRepresentation lazily reswizzles an object cached across a commit
// whose representation does not match the active specification (§4.1.2).
// Slots already in the desired representation class are kept (their RRL
// and descriptor bookkeeping is representation-accurate regardless of the
// spec that created them); mismatched slots are unswizzled and, for eager
// granules, reswizzled.
//
// Eager-direct granules snowball: after the fix, the object may hold
// direct pointers that the object manager can no longer trap on, so the
// representations of all directly referenced objects are investigated —
// and fixed — recursively (§4.1.2).
func (om *OM) fixRepresentation(obj *object.MemObject) error {
	if !obj.Stale {
		return nil
	}
	obj.Stale = false // clear first: cycle guard for the snowball
	if obj.Desc != nil {
		obj.Desc.Stale = false
	}
	om.meter.Add(sim.CntReswizzle, 1)
	if om.spec.PerObjectCall() {
		// fetch_<type> is also called when the representation of a
		// resident object is altered on first access (§6.3).
		om.meter.Event(sim.CntFetchCall, om.meter.Costs().FetchCall)
	}

	res := om.rot.Lookup(obj.OID)
	if res == nil {
		return nil
	}
	var slots []object.Slot
	obj.Refs(func(s object.Slot) {
		if !s.Ref().IsNil() {
			slots = append(slots, s)
		}
	})
	if len(slots) == 0 {
		return nil
	}
	om.pinResident(res)
	defer om.unpinResident(res)

	for _, s := range slots {
		desired := om.spec.ForSlot(s)
		r := s.Ref()
		switch r.State() {
		case object.RefOID:
			if desired.Eager() {
				if err := om.swizzleSlot(s, desired, om.slotScore(s)); err != nil {
					return err
				}
			}
		case object.RefDirect:
			if !desired.Direct() {
				om.unswizzleSlot(s)
				if desired.Eager() { // EIS
					om.scoreInc(om.slotScore(s), metrics.ScoreReswizzle)
					if err := om.swizzleSlot(s, desired, om.slotScore(s)); err != nil {
						return err
					}
				}
			}
		case object.RefIndirect:
			if !desired.Indirect() {
				om.unswizzleSlot(s)
				if desired.Eager() { // EDS
					om.scoreInc(om.slotScore(s), metrics.ScoreReswizzle)
					if err := om.swizzleSlot(s, desired, om.slotScore(s)); err != nil {
						return err
					}
				}
			}
		}
		// Direct pointers cannot trap: their targets must be fixed now.
		if r := s.Ref(); r.State() == object.RefDirect && r.Ptr().Stale {
			if err := om.fixRepresentation(r.Ptr()); err != nil {
				return err
			}
		}
	}
	return nil
}
