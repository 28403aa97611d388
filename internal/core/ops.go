package core

import (
	"fmt"

	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/sim"
)

// field resolves a field name of the variable's declared type on the
// actual object, checking the kind.
func (om *OM) field(obj *object.MemObject, name string, kind object.FieldKind) (int, error) {
	fi := obj.Type.FieldIndex(name)
	if fi < 0 {
		return -1, fmt.Errorf("%w: %s.%s", ErrNoField, obj.Type.Name, name)
	}
	if got := obj.Type.Fields()[fi].Kind; got != kind {
		return -1, fmt.Errorf("%w: %s.%s is %v", ErrWrongKind, obj.Type.Name, name, got)
	}
	return fi, nil
}

// home dereferences a variable to its resident object on the structural
// path: whatever it takes — surfacing deferred errors, applying queued
// invalidations, swizzling the variable, fixing a stale representation,
// faulting the object in.
func (om *OM) home(v *Var) (*object.MemObject, error) {
	if err := v.valid(om); err != nil {
		return nil, err
	}
	if err := om.takeDeferredErr(); err != nil {
		return nil, err
	}
	om.scoreInc(v.ctx.score, metrics.ScoreDeref)
	return om.deref(object.VarSlot(&v.ref), v.ctx.strategy, v.ctx.score)
}

// Load assigns an entry-point OID to a variable — how an application gets
// hold of its first references (root objects, index results). Under a
// swizzling strategy, loading is a discovery: the variable's reference is
// swizzled immediately (except in the upon-dereference ablation mode).
func (om *OM) Load(v *Var, id oid.OID) error {
	defer om.endOp(om.startOp(spanLoad))
	if err := v.valid(om); err != nil {
		return err
	}
	if err := om.takeDeferredErr(); err != nil {
		return err
	}
	om.unregisterSlot(object.VarSlot(&v.ref))
	v.ref = object.OIDRef(id)
	if id.IsNil() {
		return nil
	}
	// An entry-point record with no attribute: monitoring counts these to
	// model the per-entry swizzling of program variables (§7.1).
	om.recordAccess(id, "", false)
	strat := v.ctx.strategy
	if strat.Swizzles() && !(om.lazyUponDereference && strat.Lazy()) {
		return om.swizzleSlot(object.VarSlot(&v.ref), strat, v.ctx.score)
	}
	return nil
}

// Deref ensures the variable's target is resident and correctly
// represented, swizzling the variable if its strategy calls for it.
func (om *OM) Deref(v *Var) error {
	defer om.endOp(om.startOp(spanDeref))
	_, err := om.resolve(v)
	om.meter.Add(sim.CntDeref, 1)
	return err
}

// read is ReadInt, ReadStr and Card up to the value: dereference, resolve
// the field, count and charge one lookup (Table 5, "int" row).
func (om *OM) read(v *Var, field string, kind object.FieldKind) (*object.MemObject, int, error) {
	obj, err := om.resolve(v)
	if err != nil {
		return nil, -1, err
	}
	fi, err := om.field(obj, field, kind)
	if err != nil {
		return nil, -1, err
	}
	om.count(metrics.CtrRead)
	om.meter.EventP(sim.CntLookupInt, om.pc.FieldAccess)
	om.recordAccess(obj.OID, field, false)
	return obj, fi, nil
}

// ReadInt reads an int field of the object the variable references (one
// Lookup in the paper's cost model).
func (om *OM) ReadInt(v *Var, field string) (int64, error) {
	defer om.endOp(om.startOp(spanReadInt))
	obj, fi, err := om.read(v, field, object.KindInt)
	if err != nil {
		return 0, err
	}
	return obj.Int(fi), nil
}

// ReadStr reads a string field.
func (om *OM) ReadStr(v *Var, field string) (string, error) {
	defer om.endOp(om.startOp(spanReadStr))
	obj, fi, err := om.read(v, field, object.KindString)
	if err != nil {
		return "", err
	}
	return obj.Str(fi), nil
}

// Card returns the cardinality of a set-valued field.
func (om *OM) Card(v *Var, field string) (int, error) {
	defer om.endOp(om.startOp(spanCard))
	obj, fi, err := om.read(v, field, object.KindRefSet)
	if err != nil {
		return 0, err
	}
	return obj.SetLen(fi), nil
}

// ReadRef reads a reference field into a destination variable (Table 5,
// "reference" row). Reading is the discovery point of lazy swizzling
// (§3.2.1): the field's reference is swizzled per its granule before it is
// copied, unless the manager runs in the upon-dereference ablation mode.
func (om *OM) ReadRef(v *Var, field string, dst *Var) error {
	defer om.endOp(om.startOp(spanReadRef))
	return om.readRef(v, field, object.KindRef, -1, dst)
}

// ReadElem reads the i-th element of a set-valued field into a variable.
func (om *OM) ReadElem(v *Var, field string, i int, dst *Var) error {
	defer om.endOp(om.startOp(spanReadElem))
	return om.readRef(v, field, object.KindRefSet, i, dst)
}

// refSlot resolves the slot ReadRef (kind KindRef) or ReadElem (KindRefSet,
// element i) reads, checking the destination first.
func (om *OM) refSlot(obj *object.MemObject, field string, kind object.FieldKind, i int, dst *Var) (object.Slot, error) {
	if err := dst.valid(om); err != nil {
		return object.Slot{}, err
	}
	fi, err := om.field(obj, field, kind)
	if err != nil {
		return object.Slot{}, err
	}
	if kind == object.KindRef {
		return object.FieldSlot(obj, fi), nil
	}
	if i < 0 || i >= obj.SetLen(fi) {
		return object.Slot{}, fmt.Errorf("core: %s.%s[%d] out of range (%d elements)",
			obj.Type.Name, field, i, obj.SetLen(fi))
	}
	return object.ElemSlot(obj, fi, i), nil
}

// countRefRead counts and charges the read of a reference slot: one lookup
// of a reference field, and a use of the reference in its home context —
// the scoreboard row the advisor prices as LRef for "Type.field".
func (om *OM) countRefRead(slot object.Slot) {
	om.count(metrics.CtrRead)
	om.meter.EventP(sim.CntLookupRef, om.pc.RefRead)
	om.scoreInc(om.slotScore(slot), metrics.ScoreDeref)
}

// readRef is ReadRef and ReadElem. On the hit path the home is resident,
// the slot needs no discovery and the copy into dst no fault; otherwise
// nothing has happened yet and the structural path does all of it, with the
// home pinned while slots into it are manipulated.
func (om *OM) readRef(v *Var, field string, kind object.FieldKind, i int, dst *Var) error {
	if err := v.valid(om); err != nil {
		return err
	}
	if obj, st, ok := om.peek(v); ok {
		if obj == nil {
			om.chargeHome(v, st)
			return ErrNilRef
		}
		slot, err := om.refSlot(obj, field, kind, i, dst)
		if err != nil {
			om.chargeHome(v, st)
			return err
		}
		src := *slot.Ref()
		if target, ok := om.planAssign(dst, &src); ok && !om.needsDiscovery(slot, &src) {
			om.chargeHome(v, st)
			om.countRefRead(slot)
			return om.assignRef(object.VarSlot(&dst.ref), dst.ctx.strategy, &src, target)
		}
	}
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	slot, err := om.refSlot(obj, field, kind, i, dst)
	if err != nil {
		return err
	}
	om.countRefRead(slot)
	om.recordAccess(obj.OID, field, false)
	return om.withPinned(obj, func() error {
		if err := om.discover(slot); err != nil {
			return err
		}
		return om.assignRef(object.VarSlot(&dst.ref), dst.ctx.strategy, slot.Ref(), nil)
	})
}

// discover swizzles a just-read field slot per its granule (lazy swizzling
// upon discovery). Eager slots are already swizzled; NOS slots stay OIDs.
func (om *OM) discover(slot object.Slot) error {
	strat := om.spec.ForSlot(slot)
	if !strat.Lazy() || om.lazyUponDereference {
		return nil
	}
	if slot.Ref().State() != object.RefOID {
		return nil
	}
	return om.swizzleSlot(slot, strat, om.slotScore(slot))
}

// WriteInt updates an int field (one Update; Fig. 11b).
func (om *OM) WriteInt(v *Var, field string, val int64) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.resolve(v)
	if err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindInt)
	if err != nil {
		return err
	}
	om.count(metrics.CtrWrite)
	om.meter.EventP(sim.CntUpdateInt, om.pc.IntUpdate)
	om.recordAccess(obj.OID, field, true)
	obj.SetInt(fi, val)
	om.markDirty(obj)
	return nil
}

// WriteStr updates a string field.
func (om *OM) WriteStr(v *Var, field string, val string) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindString)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.count(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateInt, costs.FieldAccess+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	obj.SetStr(fi, val)
	om.markDirty(obj)
	return om.reaccount(obj)
}

// WriteRef redirects a reference field to the object referenced by src
// (Fig. 11a: under direct swizzling this maintains two RRLs — the old
// target's and the new target's — which is what makes the cost grow with
// fan-in).
func (om *OM) WriteRef(v *Var, field string, src *Var) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	if err := src.valid(om); err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRef)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.count(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		slot := object.FieldSlot(obj, fi)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref, nil)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return nil
}

// Assign copies one variable's reference into another (reference copies
// between local variables).
func (om *OM) Assign(dst, src *Var) error {
	var target *object.MemObject
	hit := om.hitViable() && dst.valid(om) == nil && src.valid(om) == nil
	if hit {
		target, hit = om.planAssign(dst, &src.ref)
	}
	if !hit {
		// Deferred state to surface, or the copy needs a fault or a stale
		// fix; nothing has happened yet.
		if err := dst.valid(om); err != nil {
			return err
		}
		if err := src.valid(om); err != nil {
			return err
		}
		if err := om.takeDeferredErr(); err != nil {
			return err
		}
		target = nil
	}
	om.meter.ChargeP(om.pc.RefFieldExtra)
	return om.assignRef(object.VarSlot(&dst.ref), dst.ctx.strategy, &src.ref, target)
}

// AppendElem adds the object referenced by src to a set-valued field.
func (om *OM) AppendElem(v *Var, field string, src *Var) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	if err := src.valid(om); err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRefSet)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.count(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		idx := obj.Append(fi, object.NilRef)
		slot := object.ElemSlot(obj, fi, idx)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref, nil)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return om.reaccount(obj)
}

// WriteElem overwrites the i-th element of a set-valued field with the
// reference held by src, maintaining all swizzling bookkeeping.
func (om *OM) WriteElem(v *Var, field string, i int, src *Var) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	if err := src.valid(om); err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRefSet)
	if err != nil {
		return err
	}
	if i < 0 || i >= obj.SetLen(fi) {
		return fmt.Errorf("core: %s.%s[%d] out of range", obj.Type.Name, field, i)
	}
	costs := om.meter.Costs()
	om.count(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		slot := object.ElemSlot(obj, fi, i)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref, nil)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return nil
}

// RemoveElem removes the i-th element of a set-valued field, maintaining
// the RRL registrations of the element that is swapped into its place.
func (om *OM) RemoveElem(v *Var, field string, i int) error {
	defer om.endOp(om.startOp(spanWrite))
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRefSet)
	if err != nil {
		return err
	}
	if i < 0 || i >= obj.SetLen(fi) {
		return fmt.Errorf("core: %s.%s[%d] out of range", obj.Type.Name, field, i)
	}
	costs := om.meter.Costs()
	om.count(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	om.unregisterSlot(object.ElemSlot(obj, fi, i))
	moved := obj.RemoveElem(fi, i)
	if moved >= 0 {
		// The moved element's registration names the old index; every
		// bookkeeping mode that records slot identities must follow it.
		if r := obj.Elem(fi, i); r.State() == object.RefDirect {
			if t := r.Ptr(); t.RRL != nil {
				t.RRL.ShiftElem(obj, fi, moved, i)
			}
			if om.swizzleTableCap > 0 {
				om.tableShiftElem(obj, fi, moved, i)
			}
		}
	}
	om.markDirty(obj)
	return om.reaccount(obj)
}

// reaccount refreshes object-cache byte accounting after a size change.
func (om *OM) reaccount(obj *object.MemObject) error {
	if om.cache == nil {
		return nil
	}
	return om.cache.Reaccount(obj.OID)
}

// TypeOf returns the dynamic type of the referenced object, dereferencing
// it if needed.
func (om *OM) TypeOf(v *Var) (*object.Type, error) {
	obj, err := om.resolve(v)
	if err != nil {
		return nil, err
	}
	return obj.Type, nil
}
