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
func (om *OM) field(obj *object.MemObject, name string, kinds ...object.FieldKind) (int, error) {
	fi := obj.Type.FieldIndex(name)
	if fi < 0 {
		return -1, fmt.Errorf("%w: %s.%s", ErrNoField, obj.Type.Name, name)
	}
	got := obj.Type.FieldAt(fi).Kind
	for _, k := range kinds {
		if got == k {
			return fi, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s is %v", ErrWrongKind, obj.Type.Name, name, got)
}

// home dereferences a variable to its resident object.
func (om *OM) home(v *Var) (*object.MemObject, error) {
	if err := v.valid(om); err != nil {
		return nil, err
	}
	if err := om.takeDeferredErr(); err != nil {
		return nil, err
	}
	v.score.Inc(metrics.ScoreDeref)
	return om.deref(object.VarSlot(&v.ref), v.strategy, v.score)
}

// Load assigns an entry-point OID to a variable — how an application gets
// hold of its first references (root objects, index results). Under a
// swizzling strategy, loading is a discovery: the variable's reference is
// swizzled immediately (except in the upon-dereference ablation mode).
func (om *OM) Load(v *Var, id oid.OID) error {
	sp, prev := om.startOp(spanLoad)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
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
	if v.strategy.Swizzles() && !(om.lazyUponDereference && v.strategy.Lazy()) {
		return om.swizzleSlot(object.VarSlot(&v.ref), v.strategy, v.score)
	}
	return nil
}

// Deref ensures the variable's target is resident and correctly
// represented, swizzling the variable if its strategy calls for it.
func (om *OM) Deref(v *Var) error {
	sp, prev := om.startOp(spanDeref)
	defer om.endOp(sp, prev)
	if om.conc {
		if err, ok := om.fastDeref(v); ok {
			return err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	_, err := om.home(v)
	om.meter.Add(sim.CntDeref, 1)
	return err
}

// ReadInt reads an int field of the object the variable references (one
// Lookup in the paper's cost model; Table 5, "int" row).
func (om *OM) ReadInt(v *Var, field string) (int64, error) {
	sp, prev := om.startOp(spanReadInt)
	defer om.endOp(sp, prev)
	if om.conc {
		if val, err, ok := om.fastReadInt(v, field); ok {
			return val, err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return 0, err
	}
	fi, err := om.field(obj, field, object.KindInt)
	if err != nil {
		return 0, err
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.Event(sim.CntLookupInt, om.meter.Costs().FieldAccess)
	om.recordAccess(obj.OID, field, false)
	return obj.Int(fi), nil
}

// ReadStr reads a string field.
func (om *OM) ReadStr(v *Var, field string) (string, error) {
	sp, prev := om.startOp(spanReadStr)
	defer om.endOp(sp, prev)
	if om.conc {
		if val, err, ok := om.fastReadStr(v, field); ok {
			return val, err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return "", err
	}
	fi, err := om.field(obj, field, object.KindString)
	if err != nil {
		return "", err
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.Event(sim.CntLookupInt, om.meter.Costs().FieldAccess)
	om.recordAccess(obj.OID, field, false)
	return obj.Str(fi), nil
}

// ReadRef reads a reference field into a destination variable (Table 5,
// "reference" row). Reading is the discovery point of lazy swizzling
// (§3.2.1): the field's reference is swizzled per its granule before it is
// copied, unless the manager runs in the upon-dereference ablation mode.
func (om *OM) ReadRef(v *Var, field string, dst *Var) error {
	sp, prev := om.startOp(spanReadRef)
	defer om.endOp(sp, prev)
	if om.conc {
		if err, ok := om.fastReadRef(v, field, dst); ok {
			return err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	if err := dst.valid(om); err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRef)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrRead)
	om.meter.Event(sim.CntLookupRef, costs.FieldAccess+costs.RefFieldExtra)
	om.recordAccess(obj.OID, field, false)
	return om.withPinned(obj, func() error {
		slot := object.FieldSlot(obj, fi)
		// The read is a use of the reference in its home context — the
		// scoreboard row the advisor prices as LRef for "Type.field".
		om.slotScore(slot).Inc(metrics.ScoreDeref)
		if err := om.discover(slot); err != nil {
			return err
		}
		return om.assignRef(object.VarSlot(&dst.ref), dst.strategy, slot.Ref())
	})
}

// ReadElem reads the i-th element of a set-valued field into a variable.
func (om *OM) ReadElem(v *Var, field string, i int, dst *Var) error {
	sp, prev := om.startOp(spanReadElem)
	defer om.endOp(sp, prev)
	if om.conc {
		if err, ok := om.fastReadElem(v, field, i, dst); ok {
			return err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	if err := dst.valid(om); err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindRefSet)
	if err != nil {
		return err
	}
	if i < 0 || i >= obj.SetLen(fi) {
		return fmt.Errorf("core: %s.%s[%d] out of range (%d elements)",
			obj.Type.Name, field, i, obj.SetLen(fi))
	}
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrRead)
	om.meter.Event(sim.CntLookupRef, costs.FieldAccess+costs.RefFieldExtra)
	om.recordAccess(obj.OID, field, false)
	return om.withPinned(obj, func() error {
		slot := object.ElemSlot(obj, fi, i)
		om.slotScore(slot).Inc(metrics.ScoreDeref)
		if err := om.discover(slot); err != nil {
			return err
		}
		return om.assignRef(object.VarSlot(&dst.ref), dst.strategy, slot.Ref())
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

// Card returns the cardinality of a set-valued field.
func (om *OM) Card(v *Var, field string) (int, error) {
	sp, prev := om.startOp(spanCard)
	defer om.endOp(sp, prev)
	if om.conc {
		if n, err, ok := om.fastCard(v, field); ok {
			return n, err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return 0, err
	}
	fi, err := om.field(obj, field, object.KindRefSet)
	if err != nil {
		return 0, err
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.Event(sim.CntLookupInt, om.meter.Costs().FieldAccess)
	om.recordAccess(obj.OID, field, false)
	return obj.SetLen(fi), nil
}

// WriteInt updates an int field (one Update; Fig. 11b).
func (om *OM) WriteInt(v *Var, field string, val int64) error {
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		if err, ok := om.fastWriteInt(v, field, val); ok {
			return err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindInt)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateInt, costs.FieldAccess+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	obj.SetInt(fi, val)
	om.markDirty(obj)
	return nil
}

// WriteStr updates a string field.
func (om *OM) WriteStr(v *Var, field string, val string) error {
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return err
	}
	fi, err := om.field(obj, field, object.KindString)
	if err != nil {
		return err
	}
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrWrite)
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
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
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
	om.obs.Inc(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		slot := object.FieldSlot(obj, fi)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return nil
}

// Assign copies one variable's reference into another (reference copies
// between local variables).
func (om *OM) Assign(dst, src *Var) error {
	if om.conc {
		if err, ok := om.fastAssign(dst, src); ok {
			return err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	if err := dst.valid(om); err != nil {
		return err
	}
	if err := src.valid(om); err != nil {
		return err
	}
	if err := om.takeDeferredErr(); err != nil {
		return err
	}
	om.meter.Charge(om.meter.Costs().RefFieldExtra)
	return om.assignRef(object.VarSlot(&dst.ref), dst.strategy, &src.ref)
}

// AppendElem adds the object referenced by src to a set-valued field.
func (om *OM) AppendElem(v *Var, field string, src *Var) error {
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
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
	om.obs.Inc(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		idx := obj.Append(fi, object.NilRef)
		slot := object.ElemSlot(obj, fi, idx)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return om.reaccount(obj)
}

// WriteElem overwrites the i-th element of a set-valued field with the
// reference held by src, maintaining all swizzling bookkeeping.
func (om *OM) WriteElem(v *Var, field string, i int, src *Var) error {
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
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
	om.obs.Inc(metrics.CtrWrite)
	om.meter.Event(sim.CntUpdateRef, costs.FieldAccess+costs.RefFieldExtra+costs.MarkDirty)
	om.recordAccess(obj.OID, field, true)
	if err := om.withPinned(obj, func() error {
		slot := object.ElemSlot(obj, fi, i)
		return om.assignRef(slot, om.spec.ForSlot(slot), &src.ref)
	}); err != nil {
		return err
	}
	om.markDirty(obj)
	return nil
}

// RemoveElem removes the i-th element of a set-valued field, maintaining
// the RRL registrations of the element that is swapped into its place.
func (om *OM) RemoveElem(v *Var, field string, i int) error {
	sp, prev := om.startOp(spanWrite)
	defer om.endOp(sp, prev)
	if om.conc {
		om.mu.Lock()
		defer om.mu.Unlock()
	}
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
	om.obs.Inc(metrics.CtrWrite)
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
	if om.conc {
		if t, err, ok := om.fastTypeOf(v); ok {
			return t, err
		}
		om.mu.Lock()
		defer om.mu.Unlock()
	}
	obj, err := om.home(v)
	if err != nil {
		return nil, err
	}
	return obj.Type, nil
}
