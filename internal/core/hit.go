// The resident-hit path. Every operation that dereferences a variable —
// Deref, ReadInt, ReadStr, Card, TypeOf, WriteInt, ReadRef, ReadElem, Assign
// — first tries to complete on it, in sequential and in concurrent mode
// alike:
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
// Concurrent mode (Options.Concurrent) adds three things and no logic. The
// hit path runs under one reader slot of the distributed reader-writer lock
// (latch.DRW) chosen by the variable, and the structural path under the
// writer lock, which excludes every reader; mutations the hit path makes to
// shared objects — a target's count of variable references, an int store,
// descriptor fan-in — take the object's OID latch or descMu; and charges go
// to the meter's atomic stripes (sim.Meter.Shared*) and counts straight to
// the registry. Lock order: DRW reader slot → one OID latch (leaf) or descMu
// (leaf) → package-internal locks (ROT shard, buffer shard). Writers take
// the DRW alone and then own everything; the latches they still take are
// uncontended.
package core

import (
	"sync"

	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/sim"
)

// grip is what an operation holds of the concurrent mode's lock: the
// reader slot of its variable while it is on the hit path, the writer lock
// once it went structural. A sequential manager holds nothing; rs, 0 there,
// doubles as the meter stripe hint.
type grip struct {
	rs   int
	excl bool
}

// enter takes the variable's reader slot (concurrent mode).
func (om *OM) enter(v *Var) (g grip) {
	if om.conc {
		h := 0
		if v != nil {
			h = int(v.slot)
		}
		g.rs = om.mu.RLock(h)
	}
	return g
}

// escalate trades the reader slot for the writer lock: the operation
// leaves the hit path, having done nothing yet.
func (om *OM) escalate(g *grip) {
	if om.conc && !g.excl {
		om.mu.RUnlock(g.rs)
		om.mu.Lock()
		g.excl = true
	}
}

// leave releases what enter or escalate took; call it (deferred) only in
// concurrent mode.
func (om *OM) leave(g *grip) {
	if g.excl {
		om.mu.Unlock()
	} else {
		om.mu.RUnlock(g.rs)
	}
}

// rlatch and wlatch take the object's latch around a field access
// (concurrent mode; nil otherwise), unlatch releases it.
func (om *OM) rlatch(obj *object.MemObject) *sync.RWMutex {
	if !om.conc {
		return nil
	}
	lt := om.latches.For(obj.OID)
	lt.RLock()
	return lt
}

func (om *OM) wlatch(obj *object.MemObject) *sync.RWMutex {
	if !om.conc {
		return nil
	}
	lt := om.latches.For(obj.OID)
	lt.Lock()
	return lt
}

// charge, event and add are the meter calls of code the hit path shares
// with the structural path: plain in sequential mode, on stripe h of the
// shared meter in concurrent mode.
func (om *OM) charge(h int, p sim.Picos) {
	if om.conc {
		om.meter.SharedChargeP(h, p)
	} else {
		om.meter.ChargeP(p)
	}
}

func (om *OM) event(h int, c sim.Counter, p sim.Picos) {
	if om.conc {
		om.meter.SharedEventP(h, c, p)
	} else {
		om.meter.EventP(c, p)
	}
}

func (om *OM) add(h int, c sim.Counter, n int64) {
	if om.conc {
		om.meter.SharedAdd(h, c, n)
	} else {
		om.meter.Add(c, n)
	}
}

// hitViable reports whether the hit path may run at all. Pagewise RRLs and
// the bounded swizzle table maintain global structures on every swizzle,
// and an access recorder wants a globally ordered record stream — those
// configurations run every operation structurally. So does an operation
// that finds a deferred eviction error or queued coherence invalidations:
// the structural path surfaces them first (a hit served from a frame whose
// invalidation is queued would be a stale read past the ack). The
// configuration fields change only under the writer lock, which excludes
// the reader slot the caller holds.
func (om *OM) hitViable() bool {
	return om.swizzleTableCap == 0 && !om.pagewise && om.recorder == nil &&
		!om.hasDeferred.Load() && !om.cohFlag.Load()
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
func (om *OM) chargeHome(v *Var, st object.RefState, h int) {
	om.scoreInc(v.ctx.score, metrics.ScoreDeref)
	if st == object.RefNil {
		return
	}
	if st != object.RefOID && v.ctx.strategy.Lazy() {
		om.charge(h, om.pc.LazyCheck)
	}
	switch st {
	case object.RefIndirect:
		om.count(metrics.CtrDescriptorIndirection)
		om.charge(h, om.pc.Indirection)
		om.add(h, sim.CntResidencyCheck, 1)
	case object.RefOID:
		om.count(metrics.CtrROTLookup)
		om.event(h, sim.CntROTLookup, om.pc.ROTLookup)
		om.add(h, sim.CntROTHit, 1)
	}
}

// resolve dereferences a variable to its resident object: on the hit path
// if peek finds it, else structurally (home) under the writer lock. Either
// way the dereference is charged when it returns; operations that may still
// miss after the home resolves (ReadRef, ReadElem) use peek themselves.
func (om *OM) resolve(v *Var, g *grip) (*object.MemObject, error) {
	if err := v.valid(om); err != nil {
		return nil, err
	}
	if obj, st, ok := om.peek(v); ok {
		om.chargeHome(v, st, g.rs)
		if obj == nil {
			return nil, ErrNilRef
		}
		return obj, nil
	}
	om.escalate(g)
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
