// Package rot implements the resident object table (paper §3.1): the
// mapping from OIDs to the main-memory representations of all resident
// objects. Every no-swizzling dereference consults it; swizzling exists to
// bypass it. The cost of each consultation is charged by the object manager
// at its call sites, because the charge depends on why the table is
// consulted.
//
// A table belongs to one object manager and, like it, to one goroutine: it
// is a plain map and takes no lock.
package rot

import (
	"gom/internal/object"
	"gom/internal/oid"
)

// Table is the resident object table.
type Table struct {
	m map[oid.OID]*object.MemObject
}

// New returns an empty table.
func New() *Table {
	return &Table{m: make(map[oid.OID]*object.MemObject)}
}

// Register records a resident object; the object itself carries the
// physical address it was loaded from. Registering an already-registered
// OID replaces the object (the caller is responsible for having displaced
// the old representation).
func (t *Table) Register(obj *object.MemObject) { t.m[obj.OID] = obj }

// Lookup returns the resident object for an OID, or nil (an object fault,
// §3.2.1 — note the object's page may still be buffered; residency here
// means "registered in the ROT").
func (t *Table) Lookup(id oid.OID) *object.MemObject { return t.m[id] }

// Unregister removes an object.
func (t *Table) Unregister(id oid.OID) { delete(t.m, id) }

// Len returns the number of resident objects.
func (t *Table) Len() int { return len(t.m) }

// Range calls fn for every resident object until fn returns false. The
// objects are snapshotted before fn runs, so fn may mutate the table
// (register, unregister, displace); it is called for every object resident
// when Range began. It costs O(resident objects): the object manager keeps
// it off the transaction path (Verify, spec-change stale marking, Reset).
func (t *Table) Range(fn func(*object.MemObject) bool) {
	batch := make([]*object.MemObject, 0, len(t.m))
	for _, obj := range t.m {
		batch = append(batch, obj)
	}
	for _, obj := range batch {
		if !fn(obj) {
			return
		}
	}
}
