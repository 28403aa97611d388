package object

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"gom/internal/oid"
)

// Persistent record layout (little endian):
//
//	uint16 type id
//	per field, in declaration order:
//	  int:    int32
//	  string: uint8 length + bytes
//	  ref:    uint64 OID (0 = nil)
//	  refset: uint16 cardinality + uint64 OIDs
//	Pad zero bytes (Type.Pad)
//
// References are always stored as OIDs in secondary storage (§3.1);
// encoding a swizzled object resolves each Ref to its target OID without
// disturbing the in-memory representation.

// Encoding errors.
var (
	ErrDecode   = errors.New("object: cannot decode record")
	ErrIntRange = errors.New("object: int field out of 32-bit range")
	ErrStrLen   = errors.New("object: string field longer than 255 bytes")
	ErrSetLen   = errors.New("object: set field larger than 65535 elements")
)

// Encode serializes the object to its persistent record format.
func Encode(o *MemObject) ([]byte, error) {
	buf := make([]byte, 0, o.PersistSize())
	buf = binary.LittleEndian.AppendUint16(buf, o.Type.ID)
	for i, f := range o.Type.Fields() {
		ord := o.Type.Ordinal(i)
		switch f.Kind {
		case KindInt:
			v := o.ints[ord]
			if v < -1<<31 || v >= 1<<31 {
				return nil, fmt.Errorf("%w: %s.%s = %d", ErrIntRange, o.Type.Name, f.Name, v)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(v)))
		case KindString:
			s := o.strs[ord]
			if len(s) > 255 {
				return nil, fmt.Errorf("%w: %s.%s", ErrStrLen, o.Type.Name, f.Name)
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		case KindRef:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(o.refs[ord].TargetOID()))
		case KindRefSet:
			set := o.sets[ord]
			if len(set) > 65535 {
				return nil, fmt.Errorf("%w: %s.%s", ErrSetLen, o.Type.Name, f.Name)
			}
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(set)))
			for j := range set {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(set[j].TargetOID()))
			}
		}
	}
	for i := 0; i < o.Type.Pad; i++ {
		buf = append(buf, 0)
	}
	return buf, nil
}

// Decode reconstructs an in-memory object from a persistent record. All
// reference slots come back unswizzled (state RefOID or RefNil).
func Decode(s *Schema, id oid.OID, rec []byte) (*MemObject, error) {
	if len(rec) < 2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrDecode, len(rec))
	}
	t := s.TypeByID(binary.LittleEndian.Uint16(rec))
	if t == nil {
		return nil, fmt.Errorf("%w: unknown type id %d", ErrDecode, binary.LittleEndian.Uint16(rec))
	}
	o := New(t, id)
	p := 2
	need := func(n int) error {
		if len(rec)-p < n {
			return fmt.Errorf("%w: truncated %s record (%d bytes)", ErrDecode, t.Name, len(rec))
		}
		return nil
	}
	for i, f := range t.Fields() {
		ord := t.Ordinal(i)
		switch f.Kind {
		case KindInt:
			if err := need(4); err != nil {
				return nil, err
			}
			o.ints[ord] = int64(int32(binary.LittleEndian.Uint32(rec[p:])))
			p += 4
		case KindString:
			if err := need(1); err != nil {
				return nil, err
			}
			n := int(rec[p])
			p++
			if err := need(n); err != nil {
				return nil, err
			}
			o.strs[ord] = s.strs.get(rec[p : p+n])
			p += n
		case KindRef:
			if err := need(8); err != nil {
				return nil, err
			}
			o.refs[ord] = OIDRef(oid.OID(binary.LittleEndian.Uint64(rec[p:])))
			p += 8
		case KindRefSet:
			if err := need(2); err != nil {
				return nil, err
			}
			n := int(binary.LittleEndian.Uint16(rec[p:]))
			p += 2
			if err := need(8 * n); err != nil {
				return nil, err
			}
			set := make([]Ref, n)
			for j := 0; j < n; j++ {
				set[j] = OIDRef(oid.OID(binary.LittleEndian.Uint64(rec[p:])))
				p += 8
			}
			o.sets[ord] = set
		}
	}
	if err := need(t.Pad); err != nil {
		return nil, err
	}
	return o, nil
}

// Interning limits: strings up to internMaxLen bytes are shared, and the
// table stops admitting new values at internMaxValues, so a base whose
// short strings are all distinct (names, keys) costs one bounded table, not
// a second copy of itself.
const (
	internMaxLen    = 16
	internMaxValues = 1024
)

// internTable shares decoded string values between the objects of one
// schema. Enumeration-like attributes (OO1's part type has ten values)
// would otherwise be allocated once per resident object. Strings are
// immutable, so sharing is invisible to callers.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

// get returns b as a string, shared with earlier equal values when short.
func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	t.mu.RLock()
	v, ok := t.m[string(b)] // no allocation: the compiler elides the conversion
	full := len(t.m) >= internMaxValues
	t.mu.RUnlock()
	if ok {
		return v
	}
	v = string(b)
	if full {
		return v
	}
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]string)
	}
	t.m[v] = v
	t.mu.Unlock()
	return v
}

// DecodeTypeID peeks at the type id of a record without decoding it.
func DecodeTypeID(rec []byte) (uint16, error) {
	if len(rec) < 2 {
		return 0, fmt.Errorf("%w: %d bytes", ErrDecode, len(rec))
	}
	return binary.LittleEndian.Uint16(rec), nil
}
