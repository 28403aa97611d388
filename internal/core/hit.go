// The resident-hit path. Every operation that dereferences a variable —
// Deref, ReadInt, ReadStr, Card, TypeOf, WriteInt, ReadRef, ReadElem, Assign
// — first tries to complete on it:
//
//   - It decides BEFORE any side effect whether the operation can complete
//     without an object fault, a stale-representation fix, a pending lazy
//     discovery, a deferred eviction error or a queued invalidation (peek,
//     needsDiscovery, planAssign). Nothing is charged, counted or mutated
//     until the decision is made.
//   - If it can, the operation commits: it charges the simulated costs of
//     the representation it went through (chargeHome, Table 5), counts its
//     events and does its work, with no pin, no ROT probe other than the
//     lookup no-swizzling is charged for, no closure and no allocation.
//   - If it cannot, the structural path runs the whole operation from the
//     start (home, deref, withPinned, objectFault …) and charges once. That
//     path is the specification: the hit path must leave the meter, the
//     registry and the scoreboard exactly as it would have.
//
// Both paths run on the goroutine that owns the manager, so neither takes a
// lock; the split exists because the hit path is the fast one.
package core

import (
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/sim"
)

// hitViable reports whether the hit path may run at all. Pagewise RRLs and
// the bounded swizzle table maintain global structures on every swizzle,
// and an access recorder is a monitoring run, not a hot one — those
// configurations run every operation structurally. So does an operation
// that finds a deferred eviction error or queued coherence invalidations:
// the structural path surfaces them first (a hit served from a frame whose
// invalidation is queued would be a stale read past the ack).
func (om *OM) hitViable() bool {
	return om.swizzleTableCap == 0 && !om.pagewise && om.recorder == nil &&
		om.deferredErr == nil && !om.cohFlag.Load()
}

// peek resolves a valid variable to its resident home object without any
// side effect, and reports the representation it went through, for
// chargeHome. A nil reference resolves (to nothing: st is RefNil). ok is
// false when the structural path must run: the variable itself wants
// (re)swizzling, or its target is not resident or is stale.
func (om *OM) peek(v *Var) (obj *object.MemObject, st object.RefState, ok bool) {
	if !om.hitViable() {
		return nil, 0, false
	}
	st = v.ref.State()
	switch st {
	case object.RefNil:
		return nil, st, true
	case object.RefDirect:
		obj = v.ref.Ptr()
	case object.RefIndirect:
		obj = v.ref.Desc().Ptr
	case object.RefOID:
		if v.ctx.strategy.Swizzles() {
			return nil, st, false
		}
		obj = om.rot.Lookup(v.ref.OID()) // the lookup no-swizzling pays (§3.1)
	}
	if obj == nil || obj.Stale {
		return nil, st, false
	}
	return obj, st, true
}

// chargeHome commits a dereference peek resolved: it counts the use of the
// variable's context and applies exactly the charges deref applies for a
// reference in that state (deref.go) — the lazy residency check, the
// indirection hop, or the ROT consultation.
func (om *OM) chargeHome(v *Var, st object.RefState) {
	om.scoreInc(v.ctx.score, metrics.ScoreDeref)
	if st == object.RefNil {
		return
	}
	if st != object.RefOID && v.ctx.strategy.Lazy() {
		om.meter.ChargeP(om.pc.LazyCheck)
	}
	switch st {
	case object.RefIndirect:
		om.count(metrics.CtrDescriptorIndirection)
		om.meter.ChargeP(om.pc.Indirection)
		om.meter.Add(sim.CntResidencyCheck, 1)
	case object.RefOID:
		om.count(metrics.CtrROTLookup)
		om.meter.EventP(sim.CntROTLookup, om.pc.ROTLookup)
		om.meter.Add(sim.CntROTHit, 1)
	}
}

// resolve dereferences a variable to its resident object: on the hit path
// if peek finds it, else structurally (home). Either way the dereference is
// charged when it returns; operations that may still miss after the home
// resolves (ReadRef, ReadElem) use peek themselves.
func (om *OM) resolve(v *Var) (*object.MemObject, error) {
	if err := v.valid(om); err != nil {
		return nil, err
	}
	if obj, st, ok := om.peek(v); ok {
		om.chargeHome(v, st)
		if obj == nil {
			return nil, ErrNilRef
		}
		return obj, nil
	}
	return om.home(v)
}

// needsDiscovery reports whether reading this slot would swizzle it in
// place (lazy swizzling upon discovery, discover) — the structural path's
// work, which may fault.
func (om *OM) needsDiscovery(slot object.Slot, src *object.Ref) bool {
	return src.State() == object.RefOID && !om.lazyUponDereference && om.spec.ForSlot(slot).Lazy()
}

// planAssign decides, without side effects, whether assignRef(dst ← src)
// can complete on the hit path, and resolves the target object a direct
// destination will point at. ok is false when the assignment needs a fault
// or a stale fix.
func (om *OM) planAssign(dst *Var, src *object.Ref) (target *object.MemObject, ok bool) {
	if src.IsNil() {
		return nil, true
	}
	strat := dst.ctx.strategy
	if !strat.Direct() || (strat.Lazy() && src.State() == object.RefOID) {
		return nil, true
	}
	switch src.State() {
	case object.RefDirect:
		return src.Ptr(), true
	case object.RefIndirect:
		t := src.Desc().Ptr
		return t, t != nil
	default: // RefOID: the target must already be resident and current
		obj := om.rot.Lookup(src.OID())
		return obj, obj != nil && !obj.Stale
	}
}
