package core

import (
	"errors"
	"fmt"

	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
)

// Verify checks the object manager's structural invariants and returns an
// error describing every violation found. It is a diagnostic facility used
// heavily by the test suite (the invariants are those listed in DESIGN.md):
//
//   - a directly swizzled reference points at a ROT-resident object and is
//     registered in exactly one RRL entry of its target;
//   - every RRL entry resolves to a direct reference to the list's owner;
//   - a descriptor's fan-in equals the number of indirectly swizzled
//     references naming it, and it is valid iff its object is resident;
//   - in the page architecture, every resident object's page is buffered
//     and the object is tracked in the page's residency list;
//   - every resident object with the dirty bit is on the object manager's
//     dirty list and every dirty frame on the pool's, so Commit ships it;
//   - in the page architecture, where an object's page came with a
//     directory, the directory places the object where the ROT entry says
//     it is, and no other buffered page's directory claims it.
//
// Softened eager invariant: eager-granule slots may transiently hold OIDs
// after a pinned home survived a displacement cascade; deref repairs them.
// Verify therefore does not require eager slots to be swizzled.
func (om *OM) Verify() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Collect every reference slot in the client: resident objects' fields
	// and set elements, plus program variables.
	type slotInfo struct {
		slot object.Slot
		ref  *object.Ref
	}
	var slots []slotInfo
	om.rot.Range(func(obj *object.MemObject) bool {
		obj.Refs(func(s object.Slot) {
			slots = append(slots, slotInfo{s, s.Ref()})
		})
		return true
	})
	om.liveVars(func(v *Var) {
		slots = append(slots, slotInfo{object.VarSlot(&v.ref), &v.ref})
	})

	directCount := make(map[*object.MemObject][]object.Slot)
	fanIn := make(map[*object.Descriptor]int32)
	for _, si := range slots {
		switch si.ref.State() {
		case object.RefDirect:
			target := si.ref.Ptr()
			if om.rot.Lookup(target.OID) != target {
				report("direct ref %v in %v points at non-resident object", target.OID, describeSlot(si.slot))
			}
			directCount[target] = append(directCount[target], si.slot)
		case object.RefIndirect:
			d := si.ref.Desc()
			if filed, _ := om.findDescriptor(d.OID); filed != d {
				report("indirect ref to %v uses a descriptor missing from the table", d.OID)
			}
			fanIn[d]++
		}
	}

	if om.pagewise {
		// Pagewise mode: every inter-page direct field slot must be
		// covered by a page-level registration, and the counters must
		// match exactly.
		want := make(map[[2]uint64]int)
		for _, si := range slots {
			if si.ref.State() != object.RefDirect || si.slot.IsVar() {
				continue
			}
			hp, ok1 := om.pageOf(si.slot.Home)
			tp, ok2 := om.pageOf(si.ref.Ptr())
			if !ok1 || !ok2 {
				continue
			}
			if hp != tp {
				want[[2]uint64{uint64(tp), uint64(hp)}]++
			}
		}
		got := make(map[[2]uint64]int)
		for tp, m := range om.pageRRL {
			for hp, n := range m {
				got[[2]uint64{uint64(tp), uint64(hp)}] = n
			}
		}
		for k, n := range want {
			if got[k] < n {
				report("pagewise RRL undercounts %v→%v: %d < %d", k[1], k[0], got[k], n)
			}
		}
		// Over-approximation (relocation hints) is allowed; undercounting
		// is a correctness bug (a displacement scan would miss a page).
	}

	if om.swizzleTableCap > 0 {
		// Swizzle-table mode: the table holds every non-var direct slot
		// exactly once, and never exceeds its capacity.
		if len(om.swizzleTable) > om.swizzleTableCap {
			report("swizzle table over capacity: %d > %d", len(om.swizzleTable), om.swizzleTableCap)
		}
		inTable := make(map[string]int)
		for _, s := range om.swizzleTable {
			r := s.Ref()
			if r.State() != object.RefDirect {
				report("swizzle table entry %v is not directly swizzled", describeSlot(s))
			}
			inTable[describeSlot(s)]++
		}
		for _, si := range slots {
			if si.ref.State() != object.RefDirect || si.slot.IsVar() {
				continue
			}
			if inTable[describeSlot(si.slot)] != 1 {
				report("direct slot %v registered %d times in swizzle table",
					describeSlot(si.slot), inTable[describeSlot(si.slot)])
			}
		}
	}

	// RRLs two ways: every direct slot registered; every registration a
	// live direct slot. (Precise mode only — pagewise and table modes keep
	// no per-object lists.)
	if !om.pagewise && om.swizzleTableCap == 0 {
		om.rot.Range(func(obj *object.MemObject) bool {
			want := directCount[obj]
			if obj.RRL.Len() != len(want) {
				report("object %v: RRL has %d entries, %d direct refs exist", obj.OID, obj.RRL.Len(), len(want))
			}
			for _, s := range obj.RRL.Entries() {
				r := s.Ref()
				if r.State() != object.RefDirect || r.Ptr() != obj {
					report("object %v: RRL entry %v does not resolve to a direct ref to it", obj.OID, describeSlot(s))
				}
			}
			for _, s := range want {
				found := false
				for _, rs := range obj.RRL.Entries() {
					if rs.Equal(s) {
						found = true
						break
					}
				}
				if !found {
					report("object %v: direct ref at %v not registered in RRL", obj.OID, describeSlot(s))
				}
			}
			return true
		})
	}

	// Descriptors: filed in exactly one place (on the resident target, else
	// in the table), fan-in, validity ⇔ residency.
	checkDesc := func(id oid.OID, d *object.Descriptor) {
		if d.OID != id {
			report("descriptor filed under %v is for %v", id, d.OID)
		}
		if d.FanIn != fanIn[d] {
			report("descriptor %v: fan-in %d, but %d indirect refs exist", id, d.FanIn, fanIn[d])
		}
		if d.FanIn <= 0 && !om.retainDescriptors {
			report("descriptor %v retained with fan-in %d", id, d.FanIn)
		}
		if d.FanIn < 0 {
			report("descriptor %v has negative fan-in %d", id, d.FanIn)
		}
	}
	for id, d := range om.descs {
		checkDesc(id, d)
		if om.rot.Lookup(id) != nil {
			report("descriptor %v: object resident but its descriptor is still in the table", id)
		}
		if d.Ptr != nil {
			report("descriptor %v: object not resident but descriptor valid", id)
		}
	}
	// Commit and FlushAll look only at the two dirty lists, so the full
	// scans they used to make are the specification the lists are held to:
	// a write site that sets a dirty bit without enlisting loses the update.
	listed := make(map[*object.MemObject]bool, len(om.dirty))
	for _, obj := range om.dirty {
		listed[obj] = true
	}
	om.rot.Range(func(obj *object.MemObject) bool {
		if d := obj.Desc; d != nil {
			checkDesc(obj.OID, d)
			if d.Ptr != obj {
				report("descriptor %v: object resident but descriptor invalid or stale pointer", obj.OID)
			}
		}
		if obj.Dirty && !listed[obj] {
			report("object %v is dirty but not on the dirty list", obj.OID)
		}
		return true
	})
	for _, pid := range om.pool.UnlistedDirty() {
		report("page %v is dirty but not on the pool's dirty list", pid)
	}

	// Page-architecture residency bookkeeping.
	if om.cache == nil {
		om.rot.Range(func(obj *object.MemObject) bool {
			if !om.pool.Contains(obj.Page) {
				report("object %v resident but its page %v is not buffered", obj.OID, obj.Page)
			}
			found := false
			for _, o := range om.byPage[obj.Page] {
				if o == obj {
					found = true
					break
				}
			}
			if !found {
				report("object %v missing from page residency list %v", obj.OID, obj.Page)
			}
			om.verifyDirectory(obj, report)
			return true
		})
		for pid, objs := range om.byPage {
			for _, o := range objs {
				if om.rot.Lookup(o.OID) != o {
					report("page %v residency list holds displaced object %v", pid, o.OID)
				}
			}
		}
	} else {
		om.rot.Range(func(obj *object.MemObject) bool {
			if !om.cache.Contains(obj.OID) {
				report("object %v resident but not in the object cache", obj.OID)
			}
			return true
		})
		for _, id := range om.cache.Objects() {
			if om.rot.Lookup(id) == nil {
				report("cache holds unregistered object %v", id)
			}
		}
	}

	return errors.Join(errs...)
}

// verifyDirectory holds a resident object's address to the directory its
// page arrived with: the next fault of the object resolves from there, so
// drift between the two is a wrong read waiting to happen. That includes a
// page read under a snapshot, which carries the directory published with
// the image at its read point. A page without a directory (in-process
// server, or a snapshot page whose directory was withheld) is not checked,
// and one more fragmented than the shipping cap may leave the object out.
func (om *OM) verifyDirectory(obj *object.MemObject, report func(string, ...any)) {
	f := om.pool.Peek(obj.Page)
	if f == nil {
		return // reported above
	}
	dir := om.pool.Directory(f)
	if len(dir) == 0 {
		return
	}
	slot, named := dir.Find(obj.OID)
	switch {
	case named && slot != int(obj.Slot):
		report("object %v resident at %v/%d, its page's directory places it in slot %d", obj.OID, obj.Page, obj.Slot, slot)
	case !named && dir.Len() < page.MaxShippedExtents:
		report("object %v resident at %v/%d, which its page's directory does not name", obj.OID, obj.Page, obj.Slot)
	}
	if pid, _, ok := om.pool.Resolve(obj.OID); ok && pid != obj.Page {
		report("object %v resident on page %v, the pool's directory index resolves it to page %v", obj.OID, obj.Page, pid)
	}
}

func describeSlot(s object.Slot) string {
	if s.IsVar() {
		return "var"
	}
	f := s.Home.Type.FieldAt(s.Field)
	if s.Elem >= 0 {
		return fmt.Sprintf("%s(%v).%s[%d]", s.Home.Type.Name, s.Home.OID, f.Name, s.Elem)
	}
	return fmt.Sprintf("%s(%v).%s", s.Home.Type.Name, s.Home.OID, f.Name)
}

// ResidentOIDs returns the OIDs of all ROT-registered objects (test and
// diagnostic helper).
func (om *OM) ResidentOIDs() []oid.OID {
	out := make([]oid.OID, 0, om.rot.Len())
	om.rot.Range(func(obj *object.MemObject) bool {
		out = append(out, obj.OID)
		return true
	})
	return out
}

// IsResident reports whether the object is registered in the ROT.
func (om *OM) IsResident(id oid.OID) bool { return om.rot.Lookup(id) != nil }

// DescriptorCount returns the number of live descriptors (storage-overhead
// accounting, §5.3).
func (om *OM) DescriptorCount() int {
	n := len(om.descs)
	om.rot.Range(func(obj *object.MemObject) bool {
		if obj.Desc != nil {
			n++
		}
		return true
	})
	return n
}

// RRLStats returns the total number of RRL entries and allocated blocks
// over all resident objects (storage-overhead accounting, §5.3).
func (om *OM) RRLStats() (entries, blocks int) {
	om.rot.Range(func(obj *object.MemObject) bool {
		entries += obj.RRL.Len()
		blocks += obj.RRL.Blocks()
		return true
	})
	return entries, blocks
}
