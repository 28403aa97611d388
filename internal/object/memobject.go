package object

import (
	"fmt"

	"gom/internal/oid"
	"gom/internal/page"
)

// MemObject is the in-memory representation of a persistent object. Field
// values are stored in per-kind arrays indexed by the field's ordinal
// within its kind (Type.Ordinal). Reference-valued fields and set elements
// are Ref slots whose representation the swizzling strategies control.
type MemObject struct {
	OID  oid.OID
	Type *Type

	ints []int64
	strs []string
	refs []Ref
	sets [][]Ref

	// Page and Slot are the physical address the persistent record was
	// loaded from, maintained by the object manager while the object is
	// registered in the ROT. They share two words with the flags and the pin
	// count below, which keeps the header in the 144-byte size class.
	Page page.PageID
	Slot uint16
	// Dirty marks the object modified since load; it is written back on
	// commit or eviction.
	Dirty bool
	// Stale marks an object cached across a commit whose reference
	// representation does not match the current application's swizzling
	// specification; it is fixed lazily on first access (§4.1.2).
	Stale bool
	// pins counts nested pin requests; a pinned object cannot be
	// displaced (an operation holding slots into it is under way).
	pins int32

	// RRL registers the directly swizzled references pointing at this
	// object; nil until the first one appears.
	RRL *RRL
	// Desc is this object's descriptor, if indirectly swizzled references
	// to it exist (or existed and the descriptor has not been reclaimed).
	Desc *Descriptor
}

// New returns a zero-valued instance of the type.
func New(t *Type, id oid.OID) *MemObject {
	o := &MemObject{OID: id, Type: t}
	nInt, nStr, nRef, nSet := t.Counts()
	if nInt > 0 {
		o.ints = make([]int64, nInt)
	}
	if nStr > 0 {
		o.strs = make([]string, nStr)
	}
	if nRef > 0 {
		o.refs = make([]Ref, nRef)
	}
	if nSet > 0 {
		o.sets = make([][]Ref, nSet)
	}
	return o
}

func (o *MemObject) mustKind(field int, k FieldKind) int {
	if field < 0 || field >= o.Type.NumFields() {
		panic(fmt.Sprintf("object: type %s has no field %d", o.Type.Name, field))
	}
	if got := o.Type.FieldAt(field).Kind; got != k {
		panic(fmt.Sprintf("object: %s.%s is %v, accessed as %v",
			o.Type.Name, o.Type.FieldAt(field).Name, got, k))
	}
	return o.Type.Ordinal(field)
}

// Int returns the value of an int field.
func (o *MemObject) Int(field int) int64 { return o.ints[o.mustKind(field, KindInt)] }

// SetInt stores an int field.
func (o *MemObject) SetInt(field int, v int64) { o.ints[o.mustKind(field, KindInt)] = v }

// Str returns the value of a string field.
func (o *MemObject) Str(field int) string { return o.strs[o.mustKind(field, KindString)] }

// SetStr stores a string field.
func (o *MemObject) SetStr(field int, v string) { o.strs[o.mustKind(field, KindString)] = v }

// Ref returns the reference slot of a ref field. The caller may mutate it
// (that is how swizzling is performed); the slot stays valid for the
// object's lifetime.
func (o *MemObject) Ref(field int) *Ref { return &o.refs[o.mustKind(field, KindRef)] }

// SetLen returns the cardinality of a set field.
func (o *MemObject) SetLen(field int) int { return len(o.sets[o.mustKind(field, KindRefSet)]) }

// Elem returns the reference slot of one set element. The pointer is
// invalidated by set growth; persistent code should address elements
// through Slots.
func (o *MemObject) Elem(field, i int) *Ref {
	return &o.sets[o.mustKind(field, KindRefSet)][i]
}

// Append adds a reference to a set field and returns the element index.
func (o *MemObject) Append(field int, r Ref) int {
	ord := o.mustKind(field, KindRefSet)
	o.sets[ord] = append(o.sets[ord], r)
	return len(o.sets[ord]) - 1
}

// RemoveElem removes a set element by swapping in the last element. It
// returns the index the last element moved from (or -1 if no move
// happened); the caller must fix RRL registrations of the moved element via
// RRL.ShiftElem.
func (o *MemObject) RemoveElem(field, i int) (movedFrom int) {
	ord := o.mustKind(field, KindRefSet)
	set := o.sets[ord]
	last := len(set) - 1
	movedFrom = -1
	if i != last {
		set[i] = set[last]
		movedFrom = last
	}
	set[last] = Ref{}
	o.sets[ord] = set[:last]
	return movedFrom
}

// Refs iterates over every reference slot of the object — ref fields first,
// then set elements — as Slots, calling fn for each. This is what an eager
// strategy "scanning through" an object at fault time walks (§3.2.1).
func (o *MemObject) Refs(fn func(Slot)) {
	for i, f := range o.Type.Fields() {
		switch f.Kind {
		case KindRef:
			fn(FieldSlot(o, i))
		case KindRefSet:
			ord := o.Type.Ordinal(i)
			for e := range o.sets[ord] {
				fn(ElemSlot(o, i, e))
			}
		}
	}
}

// FanIn returns the object's direct fan-in: the number of directly
// swizzled references registered in its RRL.
func (o *MemObject) FanIn() int { return o.RRL.Len() }

// Pin protects the object against displacement; pins nest.
func (o *MemObject) Pin() { o.pins++ }

// Unpin releases one pin.
func (o *MemObject) Unpin() {
	if o.pins == 0 {
		panic("object: unpin of unpinned object")
	}
	o.pins--
}

// Pinned reports whether any pins are outstanding.
func (o *MemObject) Pinned() bool { return o.pins > 0 }

// PersistSize returns the object's current persistent record size.
func (o *MemObject) PersistSize() int {
	strLens := make([]int, 0, len(o.strs))
	for _, s := range o.strs {
		strLens = append(strLens, len(s))
	}
	setLens := make([]int, 0, len(o.sets))
	for _, set := range o.sets {
		setLens = append(setLens, len(set))
	}
	return o.Type.PersistSize(strLens, setLens)
}

// MemSize estimates the object's main-memory footprint in bytes for object
// cache accounting (§6.6.2): the struct header plus its value arrays.
// Descriptor (24 bytes) and RRL entries (12 bytes each, in blocks of 10)
// are the paper's swizzling storage overhead, §5.3, and are accounted
// separately.
func (o *MemObject) MemSize() int {
	n := 64         // struct header, slice headers
	n += o.Type.Pad // padding stands in for real attribute bytes
	n += 8 * len(o.ints)
	for _, s := range o.strs {
		n += 16 + len(s)
	}
	n += 24 * len(o.refs)
	for _, set := range o.sets {
		n += 24 + 24*cap(set)
	}
	return n
}

// String renders the object head for diagnostics.
func (o *MemObject) String() string {
	return fmt.Sprintf("%s(%v)", o.Type.Name, o.OID)
}

// CloneValues copies the object's field values (not its swizzling state)
// into a fresh MemObject with all references unswizzled. The object cache
// uses this when copying objects out of pages.
func (o *MemObject) CloneValues() *MemObject {
	c := New(o.Type, o.OID)
	copy(c.ints, o.ints)
	copy(c.strs, o.strs)
	for i := range o.refs {
		c.refs[i] = OIDRef(o.refs[i].TargetOID())
	}
	for i := range o.sets {
		c.sets[i] = make([]Ref, len(o.sets[i]))
		for j := range o.sets[i] {
			c.sets[i][j] = OIDRef(o.sets[i][j].TargetOID())
		}
	}
	return c
}
