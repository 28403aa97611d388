// Package rot implements the resident object table (paper §3.1): the
// mapping from OIDs to the main-memory representations of all resident
// objects. Every no-swizzling dereference consults it; swizzling exists to
// bypass it. The cost of each consultation is charged by the object manager
// at its call sites, because the charge depends on why the table is
// consulted.
package rot

import (
	"sync"
	"sync/atomic"

	"gom/internal/object"
	"gom/internal/oid"
)

// numShards is the number of lock shards. OIDs are allocated sequentially
// per volume, so the low serial bits spread hot working sets evenly; 64
// shards keep contention negligible for any plausible worker count while
// the per-shard maps stay large enough to amortize their headers.
const numShards = 64

type shard struct {
	mu sync.RWMutex
	m  map[oid.OID]*object.MemObject
	// Pad to a cache line so neighbouring shard locks do not false-share.
	_ [40]byte
}

// Table is the resident object table. It is sharded by OID so concurrent
// clients of one object manager contend only per shard: lookups take a
// shard read lock, registration and displacement a shard write lock.
type Table struct {
	shards [numShards]shard
	count  atomic.Int64
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[oid.OID]*object.MemObject)
	}
	return t
}

func (t *Table) shard(id oid.OID) *shard {
	return &t.shards[uint64(id)&(numShards-1)]
}

// Register records a resident object; the object itself carries the
// physical address it was loaded from. Registering an already-registered
// OID replaces the object (the caller is responsible for having displaced
// the old representation).
func (t *Table) Register(obj *object.MemObject) {
	s := t.shard(obj.OID)
	s.mu.Lock()
	if _, present := s.m[obj.OID]; !present {
		t.count.Add(1)
	}
	s.m[obj.OID] = obj
	s.mu.Unlock()
}

// Lookup returns the resident object for an OID, or nil (an object fault,
// §3.2.1 — note the object's page may still be buffered; residency here
// means "registered in the ROT").
func (t *Table) Lookup(id oid.OID) *object.MemObject {
	s := t.shard(id)
	s.mu.RLock()
	obj := s.m[id]
	s.mu.RUnlock()
	return obj
}

// Unregister removes an object.
func (t *Table) Unregister(id oid.OID) {
	s := t.shard(id)
	s.mu.Lock()
	if _, present := s.m[id]; present {
		t.count.Add(-1)
		delete(s.m, id)
	}
	s.mu.Unlock()
}

// Len returns the number of resident objects.
func (t *Table) Len() int { return int(t.count.Load()) }

// Range calls fn for every resident object until fn returns false. Objects
// are snapshotted per shard before fn runs, so fn may mutate the table
// (register, unregister, displace); it observes the table as of the
// moment its shard was visited. It costs O(resident objects): the object
// manager keeps it off the transaction path (Verify, spec-change stale
// marking, Reset).
func (t *Table) Range(fn func(*object.MemObject) bool) {
	var batch []*object.MemObject
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		batch = batch[:0]
		for _, obj := range s.m {
			batch = append(batch, obj)
		}
		s.mu.RUnlock()
		for _, obj := range batch {
			if !fn(obj) {
				return
			}
		}
	}
}
