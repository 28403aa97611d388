// Concurrent mode (Options.Concurrent): many goroutines share one object
// manager. The design splits operations in two classes:
//
//   - Fast paths handle the hot cases — dereferencing an already-resident,
//     correctly-represented object and reading/writing its fields — under
//     one reader slot of a distributed reader-writer lock (latch.DRW) plus,
//     where a mutation is involved, one per-OID latch. They scale across
//     cores: no global lock is taken, cost accounting goes to per-stripe
//     atomic meters (sim.Meter.Shared*), and the ROT is consulted through
//     its own shard locks.
//
//   - Everything structural — object faults, swizzling, displacement,
//     commits, application switches — takes the DRW writer lock, which
//     excludes all fast paths, and then runs the unmodified sequential code.
//
// A fast path must decide whether it can complete BEFORE it charges the
// meter or mutates anything; if it cannot (target not resident, stale
// representation, lazy discovery pending, deferred eviction error), it bails
// with no side effects and the caller retries the full sequential operation
// under the writer lock, charging exactly once. This keeps the simulated
// cost totals of a concurrent run identical to the same operations run
// sequentially.
//
// Lock order: DRW reader slot → one OID latch (leaf) or descMu (leaf) →
// package-internal locks (ROT shard, buffer shard). Writers take the DRW
// alone and then own everything.
package core

import (
	"fmt"
	"sync"

	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/sim"
	"gom/internal/swizzle"
)

// varShards shards the variable registry; NewVar/FreeVar from independent
// goroutines land on different locks.
const varShards = 16

type varShard struct {
	mu sync.Mutex
	m  map[*Var]struct{}
	_  [40]byte
}

// varSet is the sharded registry of live program variables. Sequential mode
// uses it too (the locks are uncontended there).
type varSet struct {
	shards [varShards]varShard
}

func newVarSet() *varSet {
	vs := &varSet{}
	for i := range vs.shards {
		vs.shards[i].m = make(map[*Var]struct{})
	}
	return vs
}

func (vs *varSet) shard(v *Var) *varShard { return &vs.shards[v.slot&(varShards-1)] }

func (vs *varSet) add(v *Var) {
	s := vs.shard(v)
	s.mu.Lock()
	s.m[v] = struct{}{}
	s.mu.Unlock()
}

func (vs *varSet) del(v *Var) {
	s := vs.shard(v)
	s.mu.Lock()
	delete(s.m, v)
	s.mu.Unlock()
}

// snapshot returns all live variables (order unspecified).
func (vs *varSet) snapshot() []*Var {
	var out []*Var
	for i := range vs.shards {
		s := &vs.shards[i]
		s.mu.Lock()
		for v := range s.m {
			out = append(out, v)
		}
		s.mu.Unlock()
	}
	return out
}

// drain empties the registry in place and returns the variables that were
// live. Both ends of every transaction call it, mostly with nothing live,
// and an empty shard then costs its uncontended lock and nothing else.
func (vs *varSet) drain() []*Var {
	var out []*Var
	for i := range vs.shards {
		s := &vs.shards[i]
		s.mu.Lock()
		for v := range s.m {
			out = append(out, v)
		}
		clear(s.m)
		s.mu.Unlock()
	}
	return out
}

// fastViable reports whether fast paths may run at all. Pagewise RRLs and
// the bounded swizzle table maintain global structures on every swizzle, and
// an access recorder wants a globally ordered record stream — those
// configurations serialize every operation behind the writer lock instead.
// The fields read here change only under the writer lock, which excludes
// the reader slot the caller holds.
func (om *OM) fastViable() bool {
	return om.swizzleTableCap == 0 && !om.pagewise && om.recorder == nil
}

// fastResolve resolves a reference to its resident home object without any
// side effects. ok=false means the sequential path must run (fault, stale
// fix, or pending swizzle); err != nil with ok=true is a definitive error
// (nil dereference).
func (om *OM) fastResolve(r object.Ref, strat swizzle.Strategy) (*object.MemObject, error, bool) {
	if r.IsNil() {
		return nil, ErrNilRef, true
	}
	if r.State() == object.RefOID && strat.Swizzles() {
		return nil, nil, false // variable itself wants (re)swizzling
	}
	switch r.State() {
	case object.RefDirect:
		obj := r.Ptr()
		if obj.Stale {
			return nil, nil, false
		}
		return obj, nil, true
	case object.RefIndirect:
		obj := r.Desc().Ptr
		if obj == nil || obj.Stale {
			return nil, nil, false
		}
		return obj, nil, true
	default: // RefOID under no-swizzling
		obj := om.rot.Lookup(r.OID())
		if obj == nil || obj.Stale {
			return nil, nil, false
		}
		return obj, nil, true
	}
}

// fastChargeHome applies exactly the charges om.deref would apply for a
// successful dereference of a reference in the given state (see deref.go):
// the lazy residency check, the indirection hop, or the ROT consultation.
func (om *OM) fastChargeHome(h int, state object.RefState, lazy bool) {
	costs := om.meter.Costs()
	switch state {
	case object.RefDirect:
		if lazy {
			om.meter.SharedCharge(h, costs.LazyCheck)
		}
	case object.RefIndirect:
		if lazy {
			om.meter.SharedCharge(h, costs.LazyCheck)
		}
		om.obs.Inc(metrics.CtrDescriptorIndirection)
		om.meter.SharedCharge(h, costs.Indirection)
		om.meter.SharedAdd(h, sim.CntResidencyCheck, 1)
	case object.RefOID:
		om.obs.Inc(metrics.CtrROTLookup)
		om.meter.SharedEvent(h, sim.CntROTLookup, costs.ROTLookup)
		om.meter.SharedAdd(h, sim.CntROTHit, 1)
	}
}

// fastDeref is the concurrent Deref: resolve-only, no discovery.
func (om *OM) fastDeref(v *Var) (error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, false
	}
	if err := v.valid(om); err != nil {
		om.meter.SharedAdd(h, sim.CntDeref, 1)
		return err, true
	}
	r := v.ref
	_, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr == nil {
		om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	}
	om.meter.SharedAdd(h, sim.CntDeref, 1)
	return rerr, true
}

// fastReadInt is the concurrent ReadInt.
func (om *OM) fastReadInt(v *Var, field string) (int64, error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return 0, nil, false
	}
	if err := v.valid(om); err != nil {
		return 0, err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return 0, nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return 0, rerr, true
	}
	fi, ferr := om.field(obj, field, object.KindInt)
	om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	if ferr != nil {
		return 0, ferr, true
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.SharedEvent(h, sim.CntLookupInt, om.meter.Costs().FieldAccess)
	lt := om.latches.For(obj.OID)
	lt.RLock()
	val := obj.Int(fi)
	lt.RUnlock()
	return val, nil, true
}

// fastReadStr is the concurrent ReadStr.
func (om *OM) fastReadStr(v *Var, field string) (string, error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return "", nil, false
	}
	if err := v.valid(om); err != nil {
		return "", err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return "", nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return "", rerr, true
	}
	fi, ferr := om.field(obj, field, object.KindString)
	om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	if ferr != nil {
		return "", ferr, true
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.SharedEvent(h, sim.CntLookupInt, om.meter.Costs().FieldAccess)
	lt := om.latches.For(obj.OID)
	lt.RLock()
	val := obj.Str(fi)
	lt.RUnlock()
	return val, nil, true
}

// fastCard is the concurrent Card.
func (om *OM) fastCard(v *Var, field string) (int, error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return 0, nil, false
	}
	if err := v.valid(om); err != nil {
		return 0, err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return 0, nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return 0, rerr, true
	}
	fi, ferr := om.field(obj, field, object.KindRefSet)
	om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	if ferr != nil {
		return 0, ferr, true
	}
	om.obs.Inc(metrics.CtrRead)
	om.meter.SharedEvent(h, sim.CntLookupInt, om.meter.Costs().FieldAccess)
	lt := om.latches.For(obj.OID)
	lt.RLock()
	n := obj.SetLen(fi)
	lt.RUnlock()
	return n, nil, true
}

// fastTypeOf is the concurrent TypeOf.
func (om *OM) fastTypeOf(v *Var) (*object.Type, error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, nil, false
	}
	if err := v.valid(om); err != nil {
		return nil, err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return nil, nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return nil, rerr, true
	}
	om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	return obj.Type, nil, true
}

// fastWriteInt is the concurrent WriteInt: the store and the dirty mark run
// under the object's latch so concurrent writers (and fast readers) of the
// same object serialize.
func (om *OM) fastWriteInt(v *Var, field string, val int64) (error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, false
	}
	if err := v.valid(om); err != nil {
		return err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return rerr, true
	}
	fi, ferr := om.field(obj, field, object.KindInt)
	om.fastChargeHome(h, r.State(), v.strategy.Lazy())
	if ferr != nil {
		return ferr, true
	}
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrWrite)
	om.meter.SharedEvent(h, sim.CntUpdateInt, costs.FieldAccess+costs.MarkDirty)
	lt := om.latches.For(obj.OID)
	lt.Lock()
	obj.SetInt(fi, val)
	enlist := !obj.Dirty
	obj.Dirty = true
	lt.Unlock()
	if enlist {
		// Under the latch only this goroutine saw the transition; dirtyMu
		// orders it against the first writers of other objects.
		om.dirtyMu.Lock()
		om.dirty = append(om.dirty, obj)
		om.dirtyMu.Unlock()
	}
	return nil, true
}

// fastAssignPlan decides, without side effects, whether assignRef(dst ←
// src) can complete on the fast path, and resolves the target object a
// direct destination will point at. ok=false requires the sequential path
// (resident fault or stale fix needed).
func (om *OM) fastAssignPlan(dst *Var, src object.Ref) (target *object.MemObject, ok bool) {
	if src.IsNil() {
		return nil, true
	}
	want := dst.strategy.TargetState()
	if dst.strategy.Lazy() && src.State() == object.RefOID {
		want = object.RefOID
	}
	if want != object.RefDirect {
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
		if obj == nil || obj.Stale {
			return nil, false
		}
		return obj, true
	}
}

// fastAssignCommit performs the assignment planned by fastAssignPlan,
// mirroring assignRef (deref.go) for a variable destination: install the
// new value (registering RRL entries under the target's latch, descriptor
// fan-in under descMu), then release the old value's bookkeeping.
func (om *OM) fastAssignCommit(dst *Var, src object.Ref, target *object.MemObject, h int) {
	costs := om.meter.Costs()
	old := dst.ref

	switch {
	case src.IsNil():
		dst.ref = object.NilRef
	default:
		want := dst.strategy.TargetState()
		if dst.strategy.Lazy() && src.State() == object.RefOID {
			want = object.RefOID
		}
		switch {
		case src.State() == want:
			dst.ref = src
			switch want {
			case object.RefDirect:
				om.fastRegisterVarDirect(object.VarSlot(&dst.ref), target)
			case object.RefIndirect:
				om.descMu.Lock()
				src.Desc().FanIn++
				om.descMu.Unlock()
			}
		case want == object.RefOID:
			om.meter.SharedEvent(h, sim.CntTranslate, costs.TranslateSwizzledToOID)
			dst.ref = object.OIDRef(src.TargetOID())
		case want == object.RefDirect:
			if src.State() == object.RefOID {
				om.meter.SharedEvent(h, sim.CntTranslate, costs.TranslateOIDToSwizzled)
			} else {
				om.meter.SharedEvent(h, sim.CntTranslate, costs.TranslateSwizzled)
			}
			dst.ref = object.DirectRef(target)
			om.fastRegisterVarDirect(object.VarSlot(&dst.ref), target)
		default: // want == RefIndirect
			if src.State() == object.RefOID {
				om.meter.SharedEvent(h, sim.CntTranslate, costs.TranslateOIDToSwizzled)
			} else {
				om.meter.SharedEvent(h, sim.CntTranslate, costs.TranslateSwizzled)
			}
			d := om.fastDescriptorFor(src.TargetOID(), h)
			dst.ref = object.IndirectRef(d)
		}
	}

	switch old.State() {
	case object.RefDirect:
		om.fastUnregisterVarDirect(object.VarSlot(&dst.ref), old.Ptr())
	case object.RefIndirect:
		om.fastReleaseDescriptor(old.Desc(), h)
	}
}

// fastRegisterVarDirect adds a variable slot to the target's RRL under the
// target's latch. Variable registrations are uncharged (registerDirect).
func (om *OM) fastRegisterVarDirect(slot object.Slot, target *object.MemObject) {
	lt := om.latches.For(target.OID)
	lt.Lock()
	if target.RRL == nil {
		target.RRL = &object.RRL{}
	}
	target.RRL.Add(slot)
	lt.Unlock()
}

// fastUnregisterVarDirect removes a variable slot from the target's RRL
// under the target's latch (uncharged, matching unregisterDirect for
// variable slots, including freeing an emptied list).
func (om *OM) fastUnregisterVarDirect(slot object.Slot, target *object.MemObject) {
	lt := om.latches.For(target.OID)
	lt.Lock()
	if target.RRL != nil {
		target.RRL.Remove(slot)
		if target.RRL.Len() == 0 {
			target.RRL = nil
		}
	}
	lt.Unlock()
}

// fastDescriptorFor returns the descriptor for id with its fan-in already
// incremented, allocating (and charging) one under descMu if none exists.
func (om *OM) fastDescriptorFor(id oid.OID, h int) *object.Descriptor {
	om.descMu.Lock()
	d, target := om.findDescriptor(id)
	created := d == nil
	if created {
		d = om.newDescriptor(id, target)
	}
	d.FanIn++
	om.descMu.Unlock()
	if created {
		om.meter.SharedEvent(h, sim.CntDescAlloc, om.meter.Costs().DescAlloc)
	}
	return d
}

// fastReleaseDescriptor drops one fan-in under descMu, reclaiming the
// descriptor at zero exactly as releaseDescriptor does.
func (om *OM) fastReleaseDescriptor(d *object.Descriptor, h int) {
	om.descMu.Lock()
	d.FanIn--
	reclaim := d.FanIn <= 0 && !om.retainDescriptors
	if reclaim {
		om.dropDescriptor(d)
	}
	om.descMu.Unlock()
	if reclaim {
		om.meter.SharedEvent(h, sim.CntDescFree, om.meter.Costs().DescFree)
	}
}

// fastReadRef is the concurrent ReadRef. The source slot is only read (a
// pending lazy discovery bails to the sequential path, which swizzles it in
// place); the destination variable's bookkeeping is maintained under
// latches.
func (om *OM) fastReadRef(v *Var, field string, dst *Var) (error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, false
	}
	if err := v.valid(om); err != nil {
		return err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return rerr, true
	}
	lazy := v.strategy.Lazy()
	if err := dst.valid(om); err != nil {
		om.fastChargeHome(h, r.State(), lazy)
		return err, true
	}
	fi, ferr := om.field(obj, field, object.KindRef)
	if ferr != nil {
		om.fastChargeHome(h, r.State(), lazy)
		return ferr, true
	}
	slot := object.FieldSlot(obj, fi)
	src := *slot.Ref()
	if om.fastNeedsDiscovery(slot, src) {
		return nil, false
	}
	target, planOK := om.fastAssignPlan(dst, src)
	if !planOK {
		return nil, false
	}
	om.fastChargeHome(h, r.State(), lazy)
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrRead)
	om.slotScore(slot).Inc(metrics.ScoreDeref)
	om.meter.SharedEvent(h, sim.CntLookupRef, costs.FieldAccess+costs.RefFieldExtra)
	om.fastAssignCommit(dst, src, target, h)
	return nil, true
}

// fastReadElem is the concurrent ReadElem.
func (om *OM) fastReadElem(v *Var, field string, i int, dst *Var) (error, bool) {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, false
	}
	if err := v.valid(om); err != nil {
		return err, true
	}
	r := v.ref
	obj, rerr, ok := om.fastResolve(r, v.strategy)
	if !ok {
		return nil, false
	}
	v.score.Inc(metrics.ScoreDeref)
	if rerr != nil {
		return rerr, true
	}
	lazy := v.strategy.Lazy()
	if err := dst.valid(om); err != nil {
		om.fastChargeHome(h, r.State(), lazy)
		return err, true
	}
	fi, ferr := om.field(obj, field, object.KindRefSet)
	if ferr != nil {
		om.fastChargeHome(h, r.State(), lazy)
		return ferr, true
	}
	if i < 0 || i >= obj.SetLen(fi) {
		om.fastChargeHome(h, r.State(), lazy)
		return fmt.Errorf("core: %s.%s[%d] out of range (%d elements)",
			obj.Type.Name, field, i, obj.SetLen(fi)), true
	}
	slot := object.ElemSlot(obj, fi, i)
	src := *slot.Ref()
	if om.fastNeedsDiscovery(slot, src) {
		return nil, false
	}
	target, planOK := om.fastAssignPlan(dst, src)
	if !planOK {
		return nil, false
	}
	om.fastChargeHome(h, r.State(), lazy)
	costs := om.meter.Costs()
	om.obs.Inc(metrics.CtrRead)
	om.slotScore(slot).Inc(metrics.ScoreDeref)
	om.meter.SharedEvent(h, sim.CntLookupRef, costs.FieldAccess+costs.RefFieldExtra)
	om.fastAssignCommit(dst, src, target, h)
	return nil, true
}

// fastNeedsDiscovery reports whether reading this slot would swizzle it in
// place (lazy swizzling upon discovery, ops.go discover) — a structural
// mutation of a shared object, so the sequential path must do it.
func (om *OM) fastNeedsDiscovery(slot object.Slot, src object.Ref) bool {
	if src.State() != object.RefOID {
		return false
	}
	strat := om.spec.ForSlot(slot)
	return strat.Lazy() && !om.lazyUponDereference
}

// fastAssign is the concurrent Assign (variable-to-variable copy).
func (om *OM) fastAssign(dst, src *Var) (error, bool) {
	h := int(dst.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() || om.fastBlocked() {
		return nil, false
	}
	if err := dst.valid(om); err != nil {
		return err, true
	}
	if err := src.valid(om); err != nil {
		return err, true
	}
	srcRef := src.ref
	target, planOK := om.fastAssignPlan(dst, srcRef)
	if !planOK {
		return nil, false
	}
	om.meter.SharedCharge(h, om.meter.Costs().RefFieldExtra)
	om.fastAssignCommit(dst, srcRef, target, h)
	return nil, true
}

// fastOID is the concurrent OID translation (always definitive).
func (om *OM) fastOID(v *Var) (oid.OID, error) {
	var h int
	if v != nil {
		h = int(v.slot)
	}
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if err := v.valid(om); err != nil {
		return oid.Nil, err
	}
	if v.ref.Swizzled() {
		om.meter.SharedEvent(h, sim.CntTranslate, om.meter.Costs().TranslateSwizzledToOID)
	}
	return v.ref.TargetOID(), nil
}

// fastSame is the concurrent Same (always definitive).
func (om *OM) fastSame(a, b *Var) (bool, error) {
	var h int
	if a != nil {
		h = int(a.slot)
	}
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if err := a.valid(om); err != nil {
		return false, err
	}
	if err := b.valid(om); err != nil {
		return false, err
	}
	ar, br := a.ref, b.ref
	if ar.State() != br.State() {
		om.meter.SharedEvent(h, sim.CntTranslate, om.meter.Costs().TranslateSwizzledToOID)
	}
	return ar.SameTarget(&br), nil
}

// fastFreeVar releases a variable's bookkeeping under latches; reports
// whether it completed (false → caller reruns under the writer lock).
func (om *OM) fastFreeVar(v *Var) bool {
	h := int(v.slot)
	rs := om.mu.RLock(h)
	defer om.mu.RUnlock(rs)
	if !om.fastViable() {
		return false
	}
	r := v.ref
	switch r.State() {
	case object.RefDirect:
		om.fastUnregisterVarDirect(object.VarSlot(&v.ref), r.Ptr())
	case object.RefIndirect:
		om.fastReleaseDescriptor(r.Desc(), h)
	}
	v.ref = object.NilRef
	v.om = nil
	om.vars.del(v)
	return true
}
