package core

import (
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/sim"
	"gom/internal/swizzle"
)

// Var is a program variable holding a reference — its own swizzling
// context (§4.2.3). Variables are created per application and become
// invalid at Commit/BeginApplication.
type Var struct {
	om *OM
	// ctx is what the variable's name and declared type resolve to under
	// the active spec — strategy and scoreboard handle — shared by every
	// variable declared alike (varContext).
	ctx *varCtx
	ref object.Ref
	// idx is the variable's position in the list of live variables.
	idx int32
}

// varSlab is how many variables are allocated at a time. A traversal
// declares two per visited object; handing them out of a slab makes that
// one allocation per 32 visits. A slab is not reused: a freed variable the
// caller still holds must keep failing with ErrClosedVar, so its memory
// goes back to the collector with the slab, once nothing points into it.
const varSlab = 64

// varList is the list of live variables with the slab new ones come from.
// Each variable knows its position, so it leaves in O(1); the application
// boundary walks the list and finds it empty when every scope freed its
// variables.
type varList struct {
	vars []*Var
	slab []Var
}

// NewVar declares a program variable with a name and a declared target
// type. Its strategy is resolved once, statically, from the active spec.
func (om *OM) NewVar(name string, typ *object.Type) *Var {
	ctx := om.varContext(name, typ)
	l := &om.live
	if len(l.slab) == 0 {
		l.slab = make([]Var, varSlab)
	}
	v := &l.slab[0] // zero: a slab is handed out once
	l.slab = l.slab[1:]
	v.om, v.ctx, v.idx = om, ctx, int32(len(l.vars))
	l.vars = append(l.vars, v)
	return v
}

// FreeVar releases a variable before the application ends (leaving a
// scope). Its swizzling bookkeeping is unregistered.
func (om *OM) FreeVar(v *Var) {
	if v.om != om {
		return
	}
	om.unregisterSlot(object.VarSlot(&v.ref))
	v.ref = object.NilRef
	v.om = nil
	l := &om.live
	last := len(l.vars) - 1
	moved := l.vars[last]
	l.vars[v.idx], moved.idx = moved, v.idx
	l.vars[last] = nil
	l.vars = l.vars[:last]
}

// dropVars invalidates every live variable and empties the registry
// (transient state does not survive the application, §3.2.2); with
// unregister, the variables' swizzling bookkeeping is unregistered first.
func (om *OM) dropVars(unregister bool) {
	l := &om.live
	for j, v := range l.vars {
		if unregister {
			om.unregisterSlot(object.VarSlot(&v.ref))
		}
		v.ref = object.NilRef
		v.om = nil
		l.vars[j] = nil
	}
	l.vars = l.vars[:0]
}

// releaseVars ends the variables' application.
func (om *OM) releaseVars() { om.dropVars(true) }

// liveVars calls fn for every live variable: the stack scan that finds the
// variables holding a direct reference to an object being displaced (§5.3),
// and Verify.
func (om *OM) liveVars(fn func(*Var)) {
	for _, v := range om.live.vars {
		fn(v)
	}
}

// varKey identifies a variable context: all its resolution depends on.
type varKey struct {
	name string
	typ  *object.Type
}

// varCtx is what NewVar resolves for a context: strategy and scoreboard
// handle.
type varCtx struct {
	varKey
	strategy swizzle.Strategy
	score    *ctxScore
}

// varCtxScan is how many contexts NewVar compares before hashing the name:
// an application declares its variables under a handful of names, and a
// declared-type pointer plus a short string compare (which succeeds on the
// pointer when the name is the same literal) beats the hash.
const varCtxScan = 8

// varCtxTable is the table of contexts resolved under the active spec:
// first the first varCtxScan of them, byKey holds all.
type varCtxTable struct {
	first []*varCtx
	byKey map[varKey]*varCtx
}

// varContext resolves a variable context, from the table when it has been
// resolved under the active spec before: NewVar runs twice per visited
// object in a traversal.
func (om *OM) varContext(name string, typ *object.Type) *varCtx {
	t := &om.varCtxs
	for _, c := range t.first {
		if c.typ == typ && c.name == name {
			return c
		}
	}
	k := varKey{name, typ}
	if len(t.byKey) > len(t.first) {
		if c := t.byKey[k]; c != nil {
			return c
		}
	}
	c := &varCtx{varKey: k, strategy: om.spec.ForVar(name, typ.Name)}
	if om.obs != nil {
		shared := om.obs.Score(typ.Name, "$"+name)
		shared.SetStrategy(c.strategy.String())
		c.score = om.scoreHandle(shared)
	}
	if t.byKey == nil {
		t.byKey = make(map[varKey]*varCtx)
	}
	t.byKey[k] = c
	if len(t.first) < varCtxScan {
		t.first = append(t.first, c)
	}
	return c
}

// Name returns the variable's name.
func (v *Var) Name() string { return v.ctx.name }

// DeclaredType returns the variable's declared target type.
func (v *Var) DeclaredType() *object.Type { return v.ctx.typ }

// Strategy returns the variable's resolved swizzling strategy.
func (v *Var) Strategy() swizzle.Strategy { return v.ctx.strategy }

// IsNil reports whether the variable holds the null reference.
func (v *Var) IsNil() bool { return v.ref.IsNil() }

// Valid reports whether the variable still belongs to a live application
// (variables are invalidated by Commit and BeginApplication).
func (v *Var) Valid() bool { return v != nil && v.om != nil }

func (v *Var) valid(om *OM) error {
	if v == nil || v.om != om {
		return ErrClosedVar
	}
	return nil
}

// OID translates the variable's reference to its unswizzled form (an index
// key or an external handle, §3.4.2). The translation cost is charged when
// the reference is swizzled (Table 8).
func (om *OM) OID(v *Var) (oid.OID, error) {
	if err := v.valid(om); err != nil {
		return oid.Nil, err
	}
	if v.ref.Swizzled() {
		om.meter.EventP(sim.CntTranslate, om.pc.TranslateSwizzledToOID)
	}
	return v.ref.TargetOID(), nil
}

// Same evaluates the Boolean expression a == b over the referenced
// objects, translating layouts as needed (§4.2.3).
func (om *OM) Same(a, b *Var) (bool, error) {
	if err := a.valid(om); err != nil {
		return false, err
	}
	if err := b.valid(om); err != nil {
		return false, err
	}
	if a.ref.State() != b.ref.State() {
		// One side must be translated to compare.
		om.meter.EventP(sim.CntTranslate, om.pc.TranslateSwizzledToOID)
	}
	return a.ref.SameTarget(&b.ref), nil
}
