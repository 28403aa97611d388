package core

import (
	"gom/internal/object"
	"gom/internal/sim"
)

// The swizzle table (McAuliffe and Solomon 1995, discussed in §3.2.2): an
// alternative way to implement direct swizzling without reverse reference
// lists. A table with a fixed maximum number of entries records every
// directly swizzled field/element reference; when the table is full, no
// further references can be swizzled directly (they stay OIDs and behave
// like no-swizzling). When an object is evicted, the whole table is
// inspected for references to it.
//
// The paper notes that "simulation results indicate that this way of
// implementing direct swizzling is not very attractive, even given an
// optimum choice for the size of the swizzle table" — the
// ablation-swizzle-table experiment reproduces that comparison.
//
// Program variables are, as in the pagewise mode, found by the stack-scan
// equivalent (the variable registry) rather than recorded in the table.

// tableCanSwizzleDirect reports whether a direct swizzle of a field slot
// is currently possible; a full table rejects it (counted, so experiments
// can see the degradation to NOS behaviour).
func (om *OM) tableCanSwizzleDirect(slot object.Slot) bool {
	if om.swizzleTableCap == 0 || slot.IsVar() {
		return true
	}
	if len(om.swizzleTable) < om.swizzleTableCap {
		return true
	}
	om.meter.Add(sim.CntSwizzleRejected, 1)
	return false
}

// tableRegisterDirect records a directly swizzled slot.
func (om *OM) tableRegisterDirect(slot object.Slot) {
	if slot.IsVar() {
		return
	}
	om.swizzleTable = append(om.swizzleTable, slot)
	om.meter.Event(sim.CntRRLInsert, om.meter.Costs().RRLMaintain/2)
}

// tableUnregisterDirect removes a slot (linear search — the table is a
// hash table in the original; the charge models a probe).
func (om *OM) tableUnregisterDirect(slot object.Slot) {
	if slot.IsVar() {
		return
	}
	for i := range om.swizzleTable {
		if om.swizzleTable[i].Equal(slot) {
			last := len(om.swizzleTable) - 1
			om.swizzleTable[i] = om.swizzleTable[last]
			om.swizzleTable[last] = object.Slot{}
			om.swizzleTable = om.swizzleTable[:last]
			om.meter.Event(sim.CntRRLRemove, om.meter.Costs().RRLMaintain/2)
			return
		}
	}
}

// tableIncomingSlots finds the directly swizzled references to obj by
// inspecting the whole table (charged per entry, as the eviction-time
// inspection the paper describes) plus the variable registry.
func (om *OM) tableIncomingSlots(obj *object.MemObject) []object.Slot {
	var out []object.Slot
	for _, s := range om.swizzleTable {
		r := s.Ref()
		if r.State() == object.RefDirect && r.Ptr() == obj {
			out = append(out, s)
		}
	}
	nvars := 0
	om.liveVars(func(v *Var) {
		nvars++
		if v.ref.State() == object.RefDirect && v.ref.Ptr() == obj {
			out = append(out, object.VarSlot(&v.ref))
		}
	})
	om.meter.Charge(float64(len(om.swizzleTable)+nvars) * om.meter.Costs().FieldAccess / 8)
	return out
}

// tableShiftElem rewrites table entries after a set element moved from
// index from to index to (set compaction on removal), mirroring
// RRL.ShiftElem.
func (om *OM) tableShiftElem(home *object.MemObject, field, from, to int) {
	for i := range om.swizzleTable {
		e := &om.swizzleTable[i]
		if e.Home == home && e.Field == field && e.Elem == from {
			e.Elem = to
		}
	}
}

// SwizzleTableLen returns the table's current occupancy (diagnostics).
func (om *OM) SwizzleTableLen() int { return len(om.swizzleTable) }
