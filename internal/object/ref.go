package object

import (
	"fmt"

	"gom/internal/oid"
)

// RefState is the representation state of a reference slot.
type RefState uint8

// The reference states.
const (
	// RefNil is the null reference.
	RefNil RefState = iota
	// RefOID holds an unswizzled logical OID; dereferencing requires a ROT
	// lookup (no-swizzling, §3.1).
	RefOID
	// RefDirect holds the main-memory address of the target, which is
	// guaranteed resident (direct swizzling, §3.2.2).
	RefDirect
	// RefIndirect holds the address of a Descriptor; a residency check on
	// the descriptor is needed at every dereference (indirect swizzling).
	RefIndirect
)

// String names the state.
func (s RefState) String() string {
	switch s {
	case RefNil:
		return "nil"
	case RefOID:
		return "oid"
	case RefDirect:
		return "direct"
	case RefIndirect:
		return "indirect"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Ref is a reference slot: a field of an object, an element of a set, or a
// program variable. At most one of the payload fields is set, and which one
// is the slot's state: a Ref carries no separate tag, which keeps it at
// three words (every resident object holds several). Like the paper's
// 8-byte references, a Ref does not remember its OID while directly
// swizzled — the OID is recovered from the target object on unswizzling.
type Ref struct {
	id   oid.OID     // RefOID
	ptr  *MemObject  // RefDirect
	desc *Descriptor // RefIndirect
}

// NilRef is the null reference value.
var NilRef = Ref{}

// OIDRef returns an unswizzled reference to id (nil if id is nil).
func OIDRef(id oid.OID) Ref { return Ref{id: id} }

// DirectRef returns a directly swizzled reference to a resident object.
func DirectRef(obj *MemObject) Ref { return Ref{ptr: obj} }

// IndirectRef returns an indirectly swizzled reference through a
// descriptor.
func IndirectRef(d *Descriptor) Ref { return Ref{desc: d} }

// State returns the representation state of the slot.
func (r *Ref) State() RefState {
	switch {
	case r.ptr != nil:
		return RefDirect
	case r.desc != nil:
		return RefIndirect
	case r.id != oid.Nil:
		return RefOID
	}
	return RefNil
}

// IsNil reports whether the reference is null.
func (r *Ref) IsNil() bool { return *r == Ref{} }

// Swizzled reports whether the reference is in a swizzled representation.
func (r *Ref) Swizzled() bool { return r.ptr != nil || r.desc != nil }

// OID returns the stored OID; it must only be called in state RefOID.
func (r *Ref) OID() oid.OID { return r.id }

// Ptr returns the direct pointer; it must only be called in state
// RefDirect.
func (r *Ref) Ptr() *MemObject { return r.ptr }

// Desc returns the descriptor; it must only be called in state RefIndirect.
func (r *Ref) Desc() *Descriptor { return r.desc }

// TargetOID resolves the logical OID the reference denotes, in any state.
// This is the "translation to the non-swizzled format" used when a
// reference becomes an index key or is compared (§3.4.2, Table 8); the
// caller charges the translation cost.
func (r *Ref) TargetOID() oid.OID {
	switch r.State() {
	case RefOID:
		return r.id
	case RefDirect:
		return r.ptr.OID
	case RefIndirect:
		return r.desc.OID
	}
	return oid.Nil
}

// SameTarget reports whether two references denote the same object
// (Boolean expressions like myConn.from = yourConn.to, §4.2.3).
func (r *Ref) SameTarget(o *Ref) bool { return r.TargetOID() == o.TargetOID() }

// String renders the reference for diagnostics.
func (r *Ref) String() string {
	switch r.State() {
	case RefNil:
		return "ref(nil)"
	case RefOID:
		return fmt.Sprintf("ref(oid %v)", r.id)
	case RefDirect:
		return fmt.Sprintf("ref(direct %v)", r.ptr.OID)
	case RefIndirect:
		valid := "invalid"
		if r.desc.Valid() {
			valid = "valid"
		}
		return fmt.Sprintf("ref(indirect %v, %s)", r.desc.OID, valid)
	}
	return "ref(?)"
}

// Slot identifies where a reference lives, so that it can be found again
// when its target is displaced (the entries of an RRL, Fig. 2). A slot is
// either a field of a home object (Elem == -1), an element of a set-valued
// field of a home object (Elem ≥ 0), or a program variable (Home == nil,
// Var set — the paper's "transient structures", §3.2.2; the run-time stack
// scan of §5.3 is modeled by the object manager's variable registry).
type Slot struct {
	Home  *MemObject
	Field int // field index within Home's type
	Elem  int // set element index, or -1 for a plain ref field
	Var   *Ref
}

// FieldSlot identifies a plain reference field.
func FieldSlot(home *MemObject, field int) Slot {
	return Slot{Home: home, Field: field, Elem: -1}
}

// ElemSlot identifies one element of a set-valued field.
func ElemSlot(home *MemObject, field, elem int) Slot {
	return Slot{Home: home, Field: field, Elem: elem}
}

// VarSlot identifies a program variable.
func VarSlot(v *Ref) Slot { return Slot{Home: nil, Field: -1, Elem: -1, Var: v} }

// IsVar reports whether the slot is a program variable.
func (s Slot) IsVar() bool { return s.Home == nil }

// Ref resolves the slot to the reference it contains. Resolution goes
// through the home object's current storage arrays, so it stays correct
// when set slices are reallocated by growth.
func (s Slot) Ref() *Ref {
	if s.Home == nil {
		return s.Var
	}
	f := s.Home.Type.FieldAt(s.Field)
	ord := s.Home.Type.Ordinal(s.Field)
	if f.Kind == KindRef {
		return &s.Home.refs[ord]
	}
	return &s.Home.sets[ord][s.Elem]
}

// Equal reports whether two slots identify the same location.
func (s Slot) Equal(o Slot) bool {
	return s.Home == o.Home && s.Field == o.Field && s.Elem == o.Elem && s.Var == o.Var
}

// RRLBlock is the allocation granule of reverse reference lists: the paper
// allocates RRL entries in blocks of 10 for running-time efficiency and
// accounts the internal off-cuts as storage overhead (§5.3).
const RRLBlock = 10

// RRL is a reverse reference list: it registers every directly swizzled
// reference that points at the list's owner, so the references can be
// unswizzled when the owner is displaced (§3.2.2, Fig. 2).
type RRL struct {
	entries []Slot
}

// Len returns the number of registered references (the owner's fan-in).
func (l *RRL) Len() int {
	if l == nil {
		return 0
	}
	return len(l.entries)
}

// Blocks returns the number of RRLBlock-sized blocks currently allocated.
func (l *RRL) Blocks() int {
	if l == nil {
		return 0
	}
	return (cap(l.entries) + RRLBlock - 1) / RRLBlock
}

// Add registers a slot. It reports whether a new block had to be
// allocated (for cost accounting).
func (l *RRL) Add(s Slot) (newBlock bool) {
	if len(l.entries) == cap(l.entries) {
		grown := make([]Slot, len(l.entries), cap(l.entries)+RRLBlock)
		copy(grown, l.entries)
		l.entries = grown
		newBlock = true
	}
	l.entries = append(l.entries, s)
	return newBlock
}

// Remove unregisters a slot; it reports whether it was present. The search
// runs from the newest entry: the slots that come and go are program
// variables, which leave in the reverse order of their coming (scopes
// nest), so theirs is the last entry and the first compared.
func (l *RRL) Remove(s Slot) bool {
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Equal(s) {
			last := len(l.entries) - 1
			l.entries[i] = l.entries[last]
			l.entries[last] = Slot{}
			l.entries = l.entries[:last]
			return true
		}
	}
	return false
}

// Entries returns the registered slots. The slice aliases internal storage
// and must not be mutated; callers that unswizzle while iterating should
// copy it first (Drain).
func (l *RRL) Entries() []Slot {
	if l == nil {
		return nil
	}
	return l.entries
}

// Drain empties the list and returns the slots it held.
func (l *RRL) Drain() []Slot {
	out := make([]Slot, len(l.entries))
	copy(out, l.entries)
	l.entries = l.entries[:0]
	return out
}

// ShiftElem rewrites registered set-element slots of home's field after the
// element at index from moved to index to (set compaction on removal).
func (l *RRL) ShiftElem(home *MemObject, field, from, to int) {
	if l == nil {
		return
	}
	for i := range l.entries {
		e := &l.entries[i]
		if e.Home == home && e.Field == field && e.Elem == from {
			e.Elem = to
		}
	}
}
