// Package object defines the object model: schemas (types with typed
// fields), the persistent object format (what is stored in page records —
// references are OIDs there, §3.1), and the in-memory object format
// (MemObject, whose reference slots may be swizzled).
//
// The in-memory representation of a reference is the slot Ref: it holds an
// OID (unswizzled), a direct pointer to the target MemObject (directly
// swizzled), or a pointer to a Descriptor (indirectly swizzled).
// This is the GC-safe Go equivalent of the paper's 8-byte reference that is
// either an OID or a main-memory address: a program dereferencing a
// swizzled Ref touches no table, exactly as in the paper; only the
// calibrated cost meter knows what each access "would have cost".
//
// Descriptors and reverse reference lists (RRLs) are defined here because
// they are part of the in-memory object representation; the swizzling
// strategies that maintain them live in internal/swizzle.
package object

import (
	"errors"
	"fmt"

	"gom/internal/oid"
)

// FieldKind is the kind of a field.
type FieldKind uint8

// The field kinds.
const (
	// KindInt is a 4-byte integer (the paper's objects use 4-byte ints).
	KindInt FieldKind = iota
	// KindString is a short string (≤ 255 bytes).
	KindString
	// KindRef is a reference to another object (8 bytes persistently).
	KindRef
	// KindRefSet is a set of references ({Connection} in OO1). Individual
	// elements of a set cannot be distinguished by the monitoring layer
	// (§7.1), which matters for swizzling-graph weights.
	KindRefSet
)

// String names the field kind.
func (k FieldKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindRef:
		return "ref"
	case KindRefSet:
		return "refset"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Field describes one attribute of a type. Reference-valued fields (KindRef
// and KindRefSet) declare the type of the objects they refer to in Target;
// this is what lets type-specific swizzling be resolved at compile time in a
// strongly typed language (§4.2.2 — "only in strongly typed languages can
// the compiler determine the type of a reference and generate code
// accordingly").
type Field struct {
	Name   string
	Kind   FieldKind
	Target string
}

// Type is an object type. Fields are addressed by index (compile-time
// resolution in the paper's strongly typed setting, §4.2.2); each field
// also has an ordinal among the fields of its kind, which indexes the
// MemObject storage arrays.
type Type struct {
	Name string
	ID   uint16
	// Pad is extra persistent bytes appended to every instance; the OO1
	// configuration C (§6.6.2, 9 objects per page) is built by padding.
	Pad int

	fields  []Field
	byName  map[string]int
	ordinal []int // per field: ordinal within its kind
	nInt    int
	nStr    int
	nRef    int
	nSet    int
}

// Fields returns the type's fields in declaration order.
func (t *Type) Fields() []Field { return t.fields }

// NumFields returns the number of fields.
func (t *Type) NumFields() int { return len(t.fields) }

// smallTypeFields bounds the linear field-name scan: below it, comparing a
// handful of names (length check first, so most reject for free) beats
// hashing the name on every single field access.
const smallTypeFields = 8

// FieldIndex resolves a field name to its index, or -1.
func (t *Type) FieldIndex(name string) int {
	if len(t.fields) <= smallTypeFields {
		for i := range t.fields {
			if t.fields[i].Name == name {
				return i
			}
		}
		return -1
	}
	i, ok := t.byName[name]
	if !ok {
		return -1
	}
	return i
}

// FieldAt returns the field at index i.
func (t *Type) FieldAt(i int) Field { return t.fields[i] }

// Ordinal returns the field's ordinal among fields of its kind.
func (t *Type) Ordinal(i int) int { return t.ordinal[i] }

// Counts returns the number of int, string, ref, and refset fields.
func (t *Type) Counts() (ints, strs, refs, sets int) {
	return t.nInt, t.nStr, t.nRef, t.nSet
}

// RefFields returns the indices of all KindRef fields, in order.
func (t *Type) RefFields() []int {
	var out []int
	for i, f := range t.fields {
		if f.Kind == KindRef {
			out = append(out, i)
		}
	}
	return out
}

// SetFields returns the indices of all KindRefSet fields, in order.
func (t *Type) SetFields() []int {
	var out []int
	for i, f := range t.fields {
		if f.Kind == KindRefSet {
			out = append(out, i)
		}
	}
	return out
}

// PersistSize returns the size in bytes of an instance's persistent record,
// given the string lengths and set cardinalities of the instance. Layout is
// defined in encode.go.
func (t *Type) PersistSize(strLens []int, setLens []int) int {
	n := 2 // type id
	si, ci := 0, 0
	for _, f := range t.fields {
		switch f.Kind {
		case KindInt:
			n += 4
		case KindString:
			n += 1 + strLens[si]
			si++
		case KindRef:
			n += 8
		case KindRefSet:
			n += 2 + 8*setLens[ci]
			ci++
		}
	}
	return n + t.Pad
}

// Schema is a collection of types. Types are registered once; the schema is
// immutable afterwards and safe for concurrent reads.
type Schema struct {
	byName map[string]*Type
	byID   []*Type // index = type id
	// strs shares the short string values Decode materializes (encode.go).
	strs internTable
}

// ErrBadType reports schema violations.
var ErrBadType = errors.New("object: bad type")

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{byName: make(map[string]*Type)}
}

// Define registers a type with the given fields. Type IDs are assigned in
// registration order.
func (s *Schema) Define(name string, fields ...Field) (*Type, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty type name", ErrBadType)
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("%w: type %q already defined", ErrBadType, name)
	}
	if len(s.byID) >= 1<<16 {
		return nil, fmt.Errorf("%w: too many types", ErrBadType)
	}
	t := &Type{
		Name:   name,
		ID:     uint16(len(s.byID)),
		byName: make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("%w: type %q field %d has no name", ErrBadType, name, i)
		}
		if _, dup := t.byName[f.Name]; dup {
			return nil, fmt.Errorf("%w: type %q has duplicate field %q", ErrBadType, name, f.Name)
		}
		t.byName[f.Name] = i
		t.fields = append(t.fields, f)
		switch f.Kind {
		case KindInt:
			t.ordinal = append(t.ordinal, t.nInt)
			t.nInt++
		case KindString:
			t.ordinal = append(t.ordinal, t.nStr)
			t.nStr++
		case KindRef:
			t.ordinal = append(t.ordinal, t.nRef)
			t.nRef++
		case KindRefSet:
			t.ordinal = append(t.ordinal, t.nSet)
			t.nSet++
		default:
			return nil, fmt.Errorf("%w: type %q field %q has kind %v", ErrBadType, name, f.Name, f.Kind)
		}
	}
	s.byName[name] = t
	s.byID = append(s.byID, t)
	return t, nil
}

// MustDefine is Define that panics on error (for static schemas).
func (s *Schema) MustDefine(name string, fields ...Field) *Type {
	t, err := s.Define(name, fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Type returns the named type, or nil.
func (s *Schema) Type(name string) *Type { return s.byName[name] }

// TypeByID returns the type with the given id, or nil.
func (s *Schema) TypeByID(id uint16) *Type {
	if int(id) >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// Types returns all types in id order.
func (s *Schema) Types() []*Type { return s.byID }

// Descriptor is the placeholder object of indirect swizzling (§3.2.2,
// Fig. 3). An indirectly swizzled Ref points at a Descriptor; the
// descriptor holds the target's main-memory address when the target is
// resident and is marked invalid when the target is displaced. FanIn counts
// the indirectly swizzled references naming this descriptor so it can be
// reclaimed when it drops to zero. FanIn and Stale share a word, which makes
// the descriptor the paper's 24 bytes (§5.3).
type Descriptor struct {
	OID   oid.OID
	Ptr   *MemObject // nil while the target is not resident (invalid)
	FanIn int32
	// Stale marks the descriptor of an object cached across a commit whose
	// representation must be fixed on first access (§4.1.2).
	Stale bool
}

// Valid reports whether the descriptor currently resolves to a resident
// object.
func (d *Descriptor) Valid() bool { return d.Ptr != nil }
