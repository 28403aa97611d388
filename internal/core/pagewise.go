package core

import (
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/page"
	"gom/internal/sim"
)

// Pagewise reverse references (§5.3): instead of registering every
// directly swizzled reference precisely in its target's RRL, only the
// *page-to-page* relation is recorded — "page B is registered in the RRL
// of page A if page B contains directly swizzled references referring to
// objects located in page A; inter-object references within page A need
// not be recorded at all". When an object of page A is displaced, the
// object manager scans the resident objects of the registered pages (and
// the run-time stack — here the variable registry) to find the references
// to unswizzle. Space overhead drops from 12 bytes per reference to one
// counter per (target page, home page) pair, at the price of scan time on
// displacement.
//
// Pagewise mode requires the page-buffer architecture: the scan walks the
// residency lists of pages, which the copy architecture does not maintain.

// pageOf returns the buffered page an object was materialized from.
func (om *OM) pageOf(obj *object.MemObject) (page.PageID, bool) {
	if om.rot.Lookup(obj.OID) != obj {
		return page.NilPage, false
	}
	return obj.Page, true
}

// pageRegisterDirect records the page-level reverse reference for a
// directly swizzled field/element slot (variables are found by the
// stack-scan equivalent and are not recorded).
func (om *OM) pageRegisterDirect(slot object.Slot, target *object.MemObject) {
	if slot.IsVar() {
		return
	}
	hp, ok1 := om.pageOf(slot.Home)
	tp, ok2 := om.pageOf(target)
	if !ok1 || !ok2 || hp == tp {
		return // intra-page references are not recorded (§5.3)
	}
	m := om.pageRRL[tp]
	if m == nil {
		m = make(map[page.PageID]int)
		om.pageRRL[tp] = m
	}
	m[hp]++
	om.meter.Event(sim.CntRRLInsert, om.meter.Costs().RRLMaintain/4)
}

// pageUnregisterDirect removes one page-level registration.
func (om *OM) pageUnregisterDirect(slot object.Slot, target *object.MemObject) {
	if slot.IsVar() {
		return
	}
	hp, ok1 := om.pageOf(slot.Home)
	tp, ok2 := om.pageOf(target)
	if !ok1 || !ok2 || hp == tp {
		return
	}
	m := om.pageRRL[tp]
	if m == nil {
		return
	}
	if m[hp] <= 1 {
		delete(m, hp)
		if len(m) == 0 {
			delete(om.pageRRL, tp)
		}
	} else {
		m[hp]--
	}
	om.meter.Event(sim.CntRRLRemove, om.meter.Costs().RRLMaintain/4)
}

// pageMergeHints conservatively copies the reverse-reference hints of an
// object's old page to its new page after a relocation: the hints only
// say where to scan, so over-approximation is safe.
func (om *OM) pageMergeHints(oldPage, newPage page.PageID) {
	src := om.pageRRL[oldPage]
	if len(src) == 0 || oldPage == newPage {
		return
	}
	dst := om.pageRRL[newPage]
	if dst == nil {
		dst = make(map[page.PageID]int, len(src))
		om.pageRRL[newPage] = dst
	}
	for hp, n := range src {
		dst[hp] += n
	}
}

// pageIncomingSlots finds every directly swizzled slot referring to obj by
// scanning (a) the resident objects of the pages registered for obj's
// page, (b) the objects of obj's own page (intra-page references are
// never recorded), and (c) the variable registry (the run-time stack
// scan). Scan work is charged per slot inspected.
func (om *OM) pageIncomingSlots(obj *object.MemObject) []object.Slot {
	var out []object.Slot
	scanned := 0
	scanObj := func(o *object.MemObject) {
		o.Refs(func(s object.Slot) {
			scanned++
			r := s.Ref()
			if r.State() == object.RefDirect && r.Ptr() == obj {
				out = append(out, s)
			}
		})
	}
	tp, ok := om.pageOf(obj)
	if ok {
		for hp := range om.pageRRL[tp] {
			for _, o := range om.byPage[hp] {
				scanObj(o)
			}
		}
		for _, o := range om.byPage[tp] {
			if o != obj {
				scanObj(o)
			}
		}
	}
	om.liveVars(func(v *Var) {
		scanned++
		if v.ref.State() == object.RefDirect && v.ref.Ptr() == obj {
			out = append(out, object.VarSlot(&v.ref))
		}
	})
	om.obs.AddN(metrics.CtrPagewiseScan, int64(scanned))
	om.meter.Charge(float64(scanned) * om.meter.Costs().FieldAccess / 4)
	return out
}

// PagewiseRRLBytes returns the memory held by the page-level reverse
// reference table (two page ids and a counter per pair — 18 bytes — vs 12
// bytes per reference in precise mode), for the §5.3 storage comparison.
func (om *OM) PagewiseRRLBytes() int {
	n := 0
	for _, m := range om.pageRRL {
		n += len(m) * 18
	}
	return n
}
