package monitor

import (
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
)

// Resolver supplies the analyzer with the object-base facts it combines
// with the trace: physical placement (for the buffer simulation), types
// and fields (for granule attribution), and current reference targets
// (for dereference detection and the eager-direct snowball simulation).
// This is the "sampling of the object base" of §7.
type Resolver interface {
	// PageOf returns the page holding the object.
	PageOf(id oid.OID) (page.PageID, bool)
	// TypeOf returns the object's type name.
	TypeOf(id oid.OID) (string, bool)
	// Field returns the kind and declared target type of a field.
	Field(typeName, attr string) (kind object.FieldKind, target string, ok bool)
	// RefAttrs returns the names of a type's reference-valued fields.
	RefAttrs(typeName string) []string
	// RefTargets returns the OIDs currently stored in a reference-valued
	// field of the object (one for KindRef, all elements for KindRefSet).
	RefTargets(id oid.OID, attr string) []oid.OID
}

// StorageResolver samples a local server's object base. Decoded objects
// are cached: the analyzer and the greedy-EDS simulation resolve the same
// OIDs many times.
type StorageResolver struct {
	srv    *server.Local
	schema *object.Schema
	objs   map[oid.OID]*object.MemObject
}

// NewStorageResolver returns a resolver over the server and schema.
func NewStorageResolver(srv *server.Local, schema *object.Schema) *StorageResolver {
	return &StorageResolver{srv: srv, schema: schema, objs: make(map[oid.OID]*object.MemObject)}
}

// PageOf implements Resolver. It wants the address and never the page, so
// it resolves through LookupBatch: over a wire, a Lookup answer brings the
// object's page with it.
func (r *StorageResolver) PageOf(id oid.OID) (page.PageID, bool) {
	addrs, ok, err := r.srv.LookupBatch([]oid.OID{id})
	if err != nil || !ok[0] {
		return page.NilPage, false
	}
	return addrs[0].Page, true
}

func (r *StorageResolver) load(id oid.OID) *object.MemObject {
	if o, ok := r.objs[id]; ok {
		return o
	}
	rec, _, err := r.srv.Manager().Read(id)
	if err != nil {
		return nil
	}
	o, err := object.Decode(r.schema, id, rec)
	if err != nil {
		return nil
	}
	r.objs[id] = o
	return o
}

// TypeOf implements Resolver.
func (r *StorageResolver) TypeOf(id oid.OID) (string, bool) {
	o := r.load(id)
	if o == nil {
		return "", false
	}
	return o.Type.Name, true
}

// Field implements Resolver.
func (r *StorageResolver) Field(typeName, attr string) (object.FieldKind, string, bool) {
	t := r.schema.Type(typeName)
	if t == nil {
		return 0, "", false
	}
	fi := t.FieldIndex(attr)
	if fi < 0 {
		return 0, "", false
	}
	f := t.FieldAt(fi)
	return f.Kind, f.Target, true
}

// RefAttrs implements Resolver.
func (r *StorageResolver) RefAttrs(typeName string) []string {
	t := r.schema.Type(typeName)
	if t == nil {
		return nil
	}
	var out []string
	for _, f := range t.Fields() {
		if f.Kind == object.KindRef || f.Kind == object.KindRefSet {
			out = append(out, f.Name)
		}
	}
	return out
}

// RefTargets implements Resolver.
func (r *StorageResolver) RefTargets(id oid.OID, attr string) []oid.OID {
	o := r.load(id)
	if o == nil {
		return nil
	}
	fi := o.Type.FieldIndex(attr)
	if fi < 0 {
		return nil
	}
	switch o.Type.FieldAt(fi).Kind {
	case object.KindRef:
		if t := o.Ref(fi).TargetOID(); !t.IsNil() {
			return []oid.OID{t}
		}
	case object.KindRefSet:
		var out []oid.OID
		for i := 0; i < o.SetLen(fi); i++ {
			if t := o.Elem(fi, i).TargetOID(); !t.IsNil() {
				out = append(out, t)
			}
		}
		return out
	}
	return nil
}

// SampleFanIn estimates the average fan-in per target type by scanning a
// sample of the object base: for every sampled object, each of its
// reference slots contributes one potential swizzled reference to its
// target's type. sampleEvery = 1 scans everything.
func (r *StorageResolver) SampleFanIn(sampleEvery int) map[string]float64 {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	refsTo := make(map[string]int)
	objsOf := make(map[string]int)
	count := 0
	r.srv.Manager().POT().Range(func(id oid.OID, _ storage.PAddr) bool {
		count++
		if count%sampleEvery != 0 {
			return true
		}
		o := r.load(id)
		if o == nil {
			return true
		}
		objsOf[o.Type.Name]++
		for fi, f := range o.Type.Fields() {
			switch f.Kind {
			case object.KindRef:
				if !o.Ref(fi).IsNil() {
					refsTo[f.Target]++
				}
			case object.KindRefSet:
				refsTo[f.Target] += o.SetLen(fi)
			}
		}
		return true
	})
	out := make(map[string]float64, len(objsOf))
	for tname, n := range objsOf {
		if n > 0 {
			out[tname] = float64(refsTo[tname]) / float64(n)
		}
	}
	return out
}
