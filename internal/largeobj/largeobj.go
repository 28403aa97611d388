// Package largeobj implements large objects (paper §3.4): objects whose
// size exceeds a page, represented as a directory of chunks (Fig. 5 shows
// the directory of a large list in GOM).
//
// A LargeList is a persistent list of references. Its header object holds
// the directory — a set of references to chunk objects, each of which
// holds up to ChunkCap elements. Every element access consults the
// directory ("each time an element of a list is accessed, the directory of
// the list is consulted — this is where swizzling takes effect", §3.4.1).
//
// The swizzling consequences the paper derives are honored by this layer's
// position in the stack: references to a large list can be swizzled only
// to the header (the directory), never past it, and because only a small
// fraction of a large object is ever resident, indirect swizzling of the
// directory references is the natural granule choice (§3.4.1) — an
// application encodes that with a type-specific spec entry for
// ListTypeName.
package largeobj

import (
	"errors"
	"fmt"
	"strings"

	"gom/internal/core"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/sim"
)

// ChunkCap is the number of elements per chunk and of chunk references
// per directory node; both records stay under the page size. The
// directory is two-level (header → directory nodes → chunks), giving a
// capacity of ChunkCap³ = 64M elements — the hierarchical form §3.4.1
// alludes to with the B-tree remark.
const ChunkCap = 400

// Type names registered by RegisterTypes. Applications reference them in
// swizzling specs.
const (
	ListTypeName  = "__LargeList"
	DirTypeName   = "__LLDir"
	ChunkTypeName = "__LLChunk"
)

// ErrRange reports an out-of-range element index.
var ErrRange = errors.New("largeobj: index out of range")

// RegisterTypes adds (or returns) the large-list types in a schema. Call
// it before building the schema's object base.
func RegisterTypes(s *object.Schema) (list, chunk *object.Type) {
	return registerNamed(s, ListTypeName, ChunkTypeName, "")
}

// TypedNames returns the type names of an element-typed large list
// (lists whose elements are declared to reference objects of one type, so
// that type- and context-specific swizzling can target them — §4.2.2
// requires reference fields with known target types).
func TypedNames(elemType string) (listName, chunkName string) {
	return ListTypeName + "[" + elemType + "]", ChunkTypeName + "[" + elemType + "]"
}

// RegisterTyped adds (or returns) an element-typed large list's types.
func RegisterTyped(s *object.Schema, elemType string) (list, chunk *object.Type) {
	ln, cn := TypedNames(elemType)
	return registerNamed(s, ln, cn, elemType)
}

func registerNamed(s *object.Schema, listName, chunkName, elemType string) (list, chunk *object.Type) {
	if t := s.Type(listName); t != nil {
		return t, s.Type(chunkName)
	}
	dirName := DirTypeName + strings.TrimPrefix(listName, ListTypeName)
	chunk = s.MustDefine(chunkName,
		object.Field{Name: "elems", Kind: object.KindRefSet, Target: elemType},
	)
	s.MustDefine(dirName,
		object.Field{Name: "chunks", Kind: object.KindRefSet, Target: chunkName},
	)
	list = s.MustDefine(listName,
		object.Field{Name: "size", Kind: object.KindInt},
		object.Field{Name: "dirs", Kind: object.KindRefSet, Target: dirName},
	)
	return list, chunk
}

// List is a handle on a large list for one application. The handle owns a
// program variable referencing the header (the directory).
type List struct {
	om         *core.OM
	seg        uint16
	header     *core.Var
	lt, dt, ct *object.Type
}

// resolve looks a list's types up in the schema.
func resolve(om *core.OM, listTypeName string) (lt, dt, ct *object.Type, err error) {
	lt = om.Schema().Type(listTypeName)
	if lt == nil {
		return nil, nil, nil, fmt.Errorf("largeobj: type %q not registered in schema", listTypeName)
	}
	dirsField := lt.FieldIndex("dirs")
	if dirsField < 0 {
		return nil, nil, nil, fmt.Errorf("largeobj: %q is not a large-list type", listTypeName)
	}
	dt = om.Schema().Type(lt.FieldAt(dirsField).Target)
	if dt == nil {
		return nil, nil, nil, fmt.Errorf("largeobj: directory type of %q not registered", listTypeName)
	}
	ct = om.Schema().Type(dt.FieldAt(dt.FieldIndex("chunks")).Target)
	if ct == nil {
		return nil, nil, nil, fmt.Errorf("largeobj: chunk type of %q not registered", listTypeName)
	}
	return lt, dt, ct, nil
}

// Create allocates a new, empty (untyped) large list in the segment.
func Create(om *core.OM, seg uint16, name string) (*List, error) {
	return CreateNamed(om, seg, name, ListTypeName)
}

// CreateNamed allocates a new large list of the given registered list
// type (e.g. an element-typed list from RegisterTyped).
func CreateNamed(om *core.OM, seg uint16, name, listTypeName string) (*List, error) {
	lt, dt, ct, err := resolve(om, listTypeName)
	if err != nil {
		return nil, err
	}
	l := &List{om: om, seg: seg, lt: lt, dt: dt, ct: ct}
	l.header = om.NewVar(name, lt)
	if err := om.Create(lt, seg, l.header); err != nil {
		return nil, err
	}
	return l, nil
}

// Open binds a handle to an existing (untyped) large list.
func Open(om *core.OM, seg uint16, name string, id oid.OID) (*List, error) {
	return OpenNamed(om, seg, name, ListTypeName, id)
}

// OpenNamed binds a handle to an existing large list of a registered list
// type.
func OpenNamed(om *core.OM, seg uint16, name, listTypeName string, id oid.OID) (*List, error) {
	lt, dt, ct, err := resolve(om, listTypeName)
	if err != nil {
		return nil, err
	}
	l := &List{om: om, seg: seg, lt: lt, dt: dt, ct: ct}
	l.header = om.NewVar(name, lt)
	if err := om.Load(l.header, id); err != nil {
		return nil, err
	}
	return l, nil
}

// Var returns the header variable (the list's directory reference).
func (l *List) Var() *core.Var { return l.header }

// OID returns the list's OID.
func (l *List) OID() (oid.OID, error) { return l.om.OID(l.header) }

// Len returns the number of elements.
func (l *List) Len() (int, error) {
	n, err := l.om.ReadInt(l.header, "size")
	return int(n), err
}

// locate consults the two-level directory for element i and leaves the
// chunk in a fresh variable, which the caller must free.
func (l *List) locate(i int) (*core.Var, int, error) {
	size, err := l.Len()
	if err != nil {
		return nil, 0, err
	}
	if i < 0 || i >= size {
		return nil, 0, fmt.Errorf("%w: %d of %d", ErrRange, i, size)
	}
	l.om.Meter().Add(sim.CntLargeObjectAccess, 1)
	ci := i / ChunkCap
	dir := l.om.NewVar("__dir", l.dt)
	defer l.om.FreeVar(dir)
	if err := l.om.ReadElem(l.header, "dirs", ci/ChunkCap, dir); err != nil {
		return nil, 0, err
	}
	chunk := l.om.NewVar("__chunk", l.ct)
	if err := l.om.ReadElem(dir, "chunks", ci%ChunkCap, chunk); err != nil {
		l.om.FreeVar(chunk)
		return nil, 0, err
	}
	return chunk, i % ChunkCap, nil
}

// Get reads element i into dst.
func (l *List) Get(i int, dst *core.Var) error {
	chunk, ei, err := l.locate(i)
	if err != nil {
		return err
	}
	defer l.om.FreeVar(chunk)
	return l.om.ReadElem(chunk, "elems", ei, dst)
}

// Set overwrites element i with the reference held by src.
func (l *List) Set(i int, src *core.Var) error {
	chunk, ei, err := l.locate(i)
	if err != nil {
		return err
	}
	defer l.om.FreeVar(chunk)
	return l.om.WriteElem(chunk, "elems", ei, src)
}

// Append adds the reference held by src to the end of the list, growing
// the directory with new chunks (and directory nodes) as needed.
func (l *List) Append(src *core.Var) error {
	size, err := l.Len()
	if err != nil {
		return err
	}
	ci := size / ChunkCap
	di := ci / ChunkCap

	dir := l.om.NewVar("__dir", l.dt)
	defer l.om.FreeVar(dir)
	ndirs, err := l.om.Card(l.header, "dirs")
	if err != nil {
		return err
	}
	if di >= ndirs {
		// Directory growth: a new node clustered with the header.
		if err := l.om.CreateNear(l.dt, l.seg, dir, l.header); err != nil {
			return err
		}
		if err := l.om.AppendElem(l.header, "dirs", dir); err != nil {
			return err
		}
	} else {
		if err := l.om.ReadElem(l.header, "dirs", di, dir); err != nil {
			return err
		}
	}

	chunk := l.om.NewVar("__chunk", l.ct)
	defer l.om.FreeVar(chunk)
	nchunks, err := l.om.Card(dir, "chunks")
	if err != nil {
		return err
	}
	if ci%ChunkCap >= nchunks {
		// Chunk growth: clustered with its directory node.
		if err := l.om.CreateNear(l.ct, l.seg, chunk, dir); err != nil {
			return err
		}
		if err := l.om.AppendElem(dir, "chunks", chunk); err != nil {
			return err
		}
	} else {
		if err := l.om.ReadElem(dir, "chunks", ci%ChunkCap, chunk); err != nil {
			return err
		}
	}
	l.om.Meter().Add(sim.CntLargeObjectAccess, 1)
	if err := l.om.AppendElem(chunk, "elems", src); err != nil {
		return err
	}
	return l.om.WriteInt(l.header, "size", int64(size+1))
}

// Each calls fn with a variable positioned on every element in order,
// until fn returns false. The variable is reused across calls.
func (l *List) Each(declared *object.Type, fn func(i int, v *core.Var) (bool, error)) error {
	size, err := l.Len()
	if err != nil {
		return err
	}
	v := l.om.NewVar("__each", declared)
	defer l.om.FreeVar(v)
	for i := 0; i < size; i++ {
		if err := l.Get(i, v); err != nil {
			return err
		}
		ok, err := fn(i, v)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}
