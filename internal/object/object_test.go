package object

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gom/internal/oid"
)

func testSchema(t testing.TB) (*Schema, *Type, *Type) {
	t.Helper()
	s := NewSchema()
	part := s.MustDefine("Part",
		Field{Name: "part-id", Kind: KindInt},
		Field{Name: "type", Kind: KindString},
		Field{Name: "x", Kind: KindInt},
		Field{Name: "y", Kind: KindInt},
		Field{Name: "built", Kind: KindInt},
		Field{Name: "connTo", Kind: KindRefSet, Target: "Connection"},
	)
	conn := s.MustDefine("Connection",
		Field{Name: "from", Kind: KindRef, Target: "Part"},
		Field{Name: "to", Kind: KindRef, Target: "Part"},
		Field{Name: "type", Kind: KindString},
		Field{Name: "length", Kind: KindInt},
	)
	return s, part, conn
}

func TestSchemaDefineAndLookup(t *testing.T) {
	s, part, conn := testSchema(t)
	if part.ID == conn.ID {
		t.Error("duplicate type ids")
	}
	if s.Type("Part") != part || s.TypeByID(part.ID) != part {
		t.Error("lookup mismatch")
	}
	if s.Type("Nope") != nil || s.TypeByID(99) != nil {
		t.Error("missing type resolved")
	}
	if got := part.FieldIndex("x"); part.FieldAt(got).Name != "x" {
		t.Errorf("field index broken: %d", got)
	}
	if part.FieldIndex("nope") != -1 {
		t.Error("missing field resolved")
	}
	ints, strs, refs, sets := part.Counts()
	if ints != 4 || strs != 1 || refs != 0 || sets != 1 {
		t.Errorf("counts = %d %d %d %d", ints, strs, refs, sets)
	}
	if got := conn.RefFields(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ref fields = %v", got)
	}
	if got := part.SetFields(); len(got) != 1 || got[0] != 5 {
		t.Errorf("set fields = %v", got)
	}
}

func TestSchemaDefineErrors(t *testing.T) {
	s := NewSchema()
	if _, err := s.Define(""); err == nil {
		t.Error("empty name accepted")
	}
	s.MustDefine("T", Field{Name: "a", Kind: KindInt})
	if _, err := s.Define("T"); err == nil {
		t.Error("duplicate type accepted")
	}
	if _, err := s.Define("U", Field{Name: "a", Kind: KindInt}, Field{Name: "a", Kind: KindInt}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := s.Define("V", Field{Name: "", Kind: KindInt}); err == nil {
		t.Error("unnamed field accepted")
	}
	if _, err := s.Define("W", Field{Name: "f", Kind: FieldKind(99)}); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestMemObjectAccessors(t *testing.T) {
	s, part, conn := testSchema(t)
	_ = s
	p := New(part, oid.MustNew(1, 1))
	p.SetInt(part.FieldIndex("x"), 42)
	p.SetStr(part.FieldIndex("type"), "widget")
	if p.Int(part.FieldIndex("x")) != 42 || p.Str(part.FieldIndex("type")) != "widget" {
		t.Error("int/str round trip failed")
	}
	c := New(conn, oid.MustNew(1, 2))
	*c.Ref(conn.FieldIndex("from")) = OIDRef(p.OID)
	if c.Ref(conn.FieldIndex("from")).TargetOID() != p.OID {
		t.Error("ref round trip failed")
	}
	idx := p.Append(part.FieldIndex("connTo"), OIDRef(c.OID))
	if idx != 0 || p.SetLen(part.FieldIndex("connTo")) != 1 {
		t.Error("append failed")
	}
	if p.Elem(part.FieldIndex("connTo"), 0).TargetOID() != c.OID {
		t.Error("elem read failed")
	}
}

func TestMemObjectKindPanic(t *testing.T) {
	_, part, _ := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	p.Str(part.FieldIndex("x")) // x is an int
}

func TestRefStates(t *testing.T) {
	_, part, _ := testSchema(t)
	target := New(part, oid.MustNew(1, 9))

	r := OIDRef(target.OID)
	if r.State() != RefOID || r.TargetOID() != target.OID || r.Swizzled() {
		t.Errorf("oid ref: %v", r)
	}
	d := DirectRef(target)
	if d.State() != RefDirect || d.TargetOID() != target.OID || !d.Swizzled() {
		t.Errorf("direct ref: %v", d)
	}
	desc := &Descriptor{OID: target.OID, Ptr: target, FanIn: 1}
	ir := IndirectRef(desc)
	if ir.State() != RefIndirect || ir.TargetOID() != target.OID || !ir.Swizzled() {
		t.Errorf("indirect ref: %v", ir)
	}
	if !d.SameTarget(&ir) || !r.SameTarget(&d) {
		t.Error("SameTarget disagreed across representations")
	}
	n := OIDRef(oid.Nil)
	if !n.IsNil() || n.TargetOID() != oid.Nil {
		t.Errorf("nil ref: %v", n)
	}
	for _, rr := range []*Ref{&r, &d, &ir, &n} {
		if rr.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestDescriptorValidity(t *testing.T) {
	_, part, _ := testSchema(t)
	obj := New(part, oid.MustNew(1, 3))
	d := &Descriptor{OID: obj.OID}
	if d.Valid() {
		t.Error("descriptor without pointer is valid")
	}
	d.Ptr = obj
	if !d.Valid() {
		t.Error("descriptor with pointer is invalid")
	}
}

func TestRRLAddRemoveBlocks(t *testing.T) {
	_, part, conn := testSchema(t)
	target := New(part, oid.MustNew(1, 1))
	target.RRL = &RRL{}
	homes := make([]*MemObject, 25)
	for i := range homes {
		homes[i] = New(conn, oid.MustNew(1, uint64(i+10)))
	}
	blocks := 0
	for i, h := range homes {
		if target.RRL.Add(FieldSlot(h, 1)) {
			blocks++
		}
		if target.RRL.Len() != i+1 {
			t.Fatalf("len = %d after %d adds", target.RRL.Len(), i+1)
		}
	}
	// 25 entries in blocks of 10 → 3 block allocations.
	if blocks != 3 || target.RRL.Blocks() != 3 {
		t.Errorf("blocks = %d (reported %d), want 3", blocks, target.RRL.Blocks())
	}
	if !target.RRL.Remove(FieldSlot(homes[7], 1)) {
		t.Error("remove of registered slot failed")
	}
	if target.RRL.Remove(FieldSlot(homes[7], 1)) {
		t.Error("double remove succeeded")
	}
	if target.RRL.Len() != 24 {
		t.Errorf("len after remove = %d", target.RRL.Len())
	}
	drained := target.RRL.Drain()
	if len(drained) != 24 || target.RRL.Len() != 0 {
		t.Errorf("drain = %d entries, len now %d", len(drained), target.RRL.Len())
	}
}

func TestSlotResolvesAfterSetGrowth(t *testing.T) {
	_, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	connTo := part.FieldIndex("connTo")
	p.Append(connTo, OIDRef(oid.MustNew(1, 100)))
	slot := ElemSlot(p, connTo, 0)
	before := slot.Ref()
	// Force reallocation of the set slice.
	for i := 0; i < 100; i++ {
		p.Append(connTo, OIDRef(oid.MustNew(1, uint64(200+i))))
	}
	after := slot.Ref()
	if after.TargetOID() != oid.MustNew(1, 100) {
		t.Fatal("slot resolved to wrong element after growth")
	}
	if before == after {
		t.Log("set did not reallocate; growth test vacuous")
	}
	// Variable slots resolve to the variable itself.
	v := OIDRef(oid.MustNew(1, 5))
	vs := VarSlot(&v)
	if !vs.IsVar() || vs.Ref() != &v {
		t.Error("variable slot broken")
	}
	// Field slots on a Connection.
	c := New(conn, oid.MustNew(1, 2))
	fs := FieldSlot(c, conn.FieldIndex("to"))
	if fs.Ref() != c.Ref(conn.FieldIndex("to")) {
		t.Error("field slot broken")
	}
}

func TestRemoveElemAndShift(t *testing.T) {
	_, part, _ := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	connTo := part.FieldIndex("connTo")
	for i := uint64(1); i <= 4; i++ {
		p.Append(connTo, OIDRef(oid.MustNew(1, 100+i)))
	}
	rrl := &RRL{}
	rrl.Add(ElemSlot(p, connTo, 3)) // register the element that will move

	moved := p.RemoveElem(connTo, 1)
	if moved != 3 {
		t.Fatalf("movedFrom = %d, want 3", moved)
	}
	rrl.ShiftElem(p, connTo, moved, 1)
	if got := rrl.Entries()[0].Elem; got != 1 {
		t.Errorf("shifted elem = %d, want 1", got)
	}
	if rrl.Entries()[0].Ref().TargetOID() != oid.MustNew(1, 104) {
		t.Error("shifted slot resolves to wrong target")
	}
	if p.SetLen(connTo) != 3 {
		t.Errorf("set len = %d", p.SetLen(connTo))
	}
	// Removing the last element moves nothing.
	if moved := p.RemoveElem(connTo, 2); moved != -1 {
		t.Errorf("movedFrom = %d, want -1", moved)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	p.SetInt(0, 17)
	p.SetStr(1, "type-nine")
	p.SetInt(2, -5)
	p.SetInt(3, 1<<30)
	p.SetInt(4, 1990)
	p.Append(5, OIDRef(oid.MustNew(1, 50)))
	p.Append(5, OIDRef(oid.MustNew(1, 51)))

	rec, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != p.PersistSize() {
		t.Errorf("record %d bytes, PersistSize %d", len(rec), p.PersistSize())
	}
	q, err := Decode(s, p.OID, rec)
	if err != nil {
		t.Fatal(err)
	}
	if q.Int(0) != 17 || q.Str(1) != "type-nine" || q.Int(2) != -5 || q.Int(3) != 1<<30 || q.Int(4) != 1990 {
		t.Error("scalar fields mismatch")
	}
	if q.SetLen(5) != 2 || q.Elem(5, 0).TargetOID() != oid.MustNew(1, 50) {
		t.Error("set mismatch")
	}
	if q.Elem(5, 0).State() != RefOID {
		t.Error("decoded ref not unswizzled")
	}

	// A connection with a nil ref.
	c := New(conn, oid.MustNew(1, 2))
	*c.Ref(0) = OIDRef(p.OID)
	c.SetStr(2, "link")
	rec, err = Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Decode(s, c.OID, rec)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ref(0).TargetOID() != p.OID || !c2.Ref(1).IsNil() {
		t.Error("connection refs mismatch")
	}
}

func TestEncodeSwizzledObjectStoresOIDs(t *testing.T) {
	s, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	c := New(conn, oid.MustNew(1, 2))
	*c.Ref(0) = DirectRef(p)
	*c.Ref(1) = IndirectRef(&Descriptor{OID: oid.MustNew(1, 77)})
	rec, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Decode(s, c.OID, rec)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ref(0).State() != RefOID || c2.Ref(0).TargetOID() != p.OID {
		t.Errorf("direct ref persisted as %v", c2.Ref(0))
	}
	if c2.Ref(1).TargetOID() != oid.MustNew(1, 77) {
		t.Errorf("indirect ref persisted as %v", c2.Ref(1))
	}
	// Encoding must not have unswizzled the in-memory object.
	if c.Ref(0).State() != RefDirect || c.Ref(1).State() != RefIndirect {
		t.Error("encode disturbed in-memory representation")
	}
}

func TestEncodeErrors(t *testing.T) {
	_, part, _ := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	p.SetInt(0, 1<<40)
	if _, err := Encode(p); err == nil {
		t.Error("int overflow accepted")
	}
	p.SetInt(0, 0)
	p.SetStr(1, strings.Repeat("x", 256))
	if _, err := Encode(p); err == nil {
		t.Error("long string accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	s, part, _ := testSchema(t)
	if _, err := Decode(s, oid.MustNew(1, 1), []byte{1}); err == nil {
		t.Error("1-byte record accepted")
	}
	if _, err := Decode(s, oid.MustNew(1, 1), []byte{0xFF, 0xFF, 0, 0}); err == nil {
		t.Error("unknown type id accepted")
	}
	p := New(part, oid.MustNew(1, 1))
	rec, _ := Encode(p)
	for cut := 3; cut < len(rec); cut += 3 {
		if _, err := Decode(s, p.OID, rec[:cut]); err == nil {
			t.Errorf("truncated record (%d bytes) accepted", cut)
		}
	}
}

func TestPadding(t *testing.T) {
	s := NewSchema()
	padded := s.MustDefine("Padded", Field{Name: "v", Kind: KindInt})
	padded.Pad = 400
	p := New(padded, oid.MustNew(1, 1))
	p.SetInt(0, 7)
	rec, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 2+4+400 {
		t.Errorf("padded record = %d bytes", len(rec))
	}
	q, err := Decode(s, p.OID, rec)
	if err != nil || q.Int(0) != 7 {
		t.Fatalf("decode padded: %v", err)
	}
}

// TestEncodeDecodeRandom round-trips randomized instances of a type using
// every field kind.
func TestEncodeDecodeRandom(t *testing.T) {
	s := NewSchema()
	typ := s.MustDefine("R",
		Field{Name: "a", Kind: KindInt},
		Field{Name: "s", Kind: KindString},
		Field{Name: "r1", Kind: KindRef},
		Field{Name: "set", Kind: KindRefSet},
		Field{Name: "b", Kind: KindInt},
		Field{Name: "r2", Kind: KindRef},
	)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		o := New(typ, oid.MustNew(1, uint64(iter+1)))
		o.SetInt(0, int64(int32(rng.Uint32())))
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		o.SetStr(1, string(b))
		if rng.Intn(3) > 0 {
			*o.Ref(2) = OIDRef(oid.MustNew(1, uint64(rng.Intn(1000)+1)))
		}
		for j := 0; j < rng.Intn(6); j++ {
			o.Append(3, OIDRef(oid.MustNew(2, uint64(rng.Intn(1000)+1))))
		}
		o.SetInt(4, int64(rng.Intn(100))-50)
		rec, err := Encode(o)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Decode(s, o.OID, rec)
		if err != nil {
			t.Fatal(err)
		}
		if q.Int(0) != o.Int(0) || q.Str(1) != o.Str(1) || q.Int(4) != o.Int(4) {
			t.Fatal("scalar mismatch")
		}
		if q.Ref(2).TargetOID() != o.Ref(2).TargetOID() || q.Ref(5).TargetOID() != o.Ref(5).TargetOID() {
			t.Fatal("ref mismatch")
		}
		if q.SetLen(3) != o.SetLen(3) {
			t.Fatal("set len mismatch")
		}
		for j := 0; j < q.SetLen(3); j++ {
			if q.Elem(3, j).TargetOID() != o.Elem(3, j).TargetOID() {
				t.Fatal("set elem mismatch")
			}
		}
	}
}

func TestCloneValues(t *testing.T) {
	_, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	c := New(conn, oid.MustNew(1, 2))
	c.SetStr(2, "edge")
	*c.Ref(0) = DirectRef(p)
	*c.Ref(1) = IndirectRef(&Descriptor{OID: oid.MustNew(1, 33), Ptr: nil})
	cl := c.CloneValues()
	if cl.OID != c.OID || cl.Str(2) != "edge" {
		t.Error("values not cloned")
	}
	if cl.Ref(0).State() != RefOID || cl.Ref(0).TargetOID() != p.OID {
		t.Errorf("clone ref = %v", cl.Ref(0))
	}
	if cl.Ref(1).TargetOID() != oid.MustNew(1, 33) {
		t.Error("clone of indirect ref lost OID")
	}
}

func TestRefsIteration(t *testing.T) {
	_, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	p.Append(part.FieldIndex("connTo"), OIDRef(oid.MustNew(1, 10)))
	p.Append(part.FieldIndex("connTo"), OIDRef(oid.MustNew(1, 11)))
	var slots []Slot
	p.Refs(func(s Slot) { slots = append(slots, s) })
	if len(slots) != 2 || slots[0].Elem != 0 || slots[1].Elem != 1 {
		t.Errorf("part slots = %v", slots)
	}
	c := New(conn, oid.MustNew(1, 2))
	slots = nil
	c.Refs(func(s Slot) { slots = append(slots, s) })
	if len(slots) != 2 || slots[0].Elem != -1 {
		t.Errorf("conn slots = %v", slots)
	}
}

func TestPersistSizeMatchesPaper(t *testing.T) {
	// §6.1.2: a Part is ~36 bytes, a Connection ~32 bytes (4-byte aligned,
	// connTo modeled as a reference in the paper's sizing). Our layout:
	// Part with 10-char type string and connTo-set of 3 = 2+4+11+4+4+4+(2+24) = 55;
	// Connection = 2+8+8+11+4 = 33. The shapes that matter (Connections a
	// third smaller than Parts-with-sets; ~100 objects/page in config A)
	// are preserved; see oo1 package tests.
	_, part, conn := testSchema(t)
	p := New(part, oid.MustNew(1, 1))
	p.SetStr(1, "0123456789")
	for i := uint64(0); i < 3; i++ {
		p.Append(5, OIDRef(oid.MustNew(1, 10+i)))
	}
	if got := p.PersistSize(); got != 55 {
		t.Errorf("part size = %d, want 55", got)
	}
	c := New(conn, oid.MustNew(1, 2))
	c.SetStr(2, "0123456789")
	if got := c.PersistSize(); got != 33 {
		t.Errorf("conn size = %d, want 33", got)
	}
}

// TestResidentFootprint pins the sizes the per-resident-object budget in
// DESIGN.md ("Transaction boundary") is computed from: the object header
// stays in the 144-byte size class with the physical address folded in, a
// reference is three words, a descriptor the paper's 24 bytes.
func TestResidentFootprint(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"MemObject", reflect.TypeOf(MemObject{}).Size(), 144},
		{"Ref", reflect.TypeOf(Ref{}).Size(), 24},
		{"Descriptor", reflect.TypeOf(Descriptor{}).Size(), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("sizeof(%s) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestDecodeInternsShortStrings: enumeration-like string attributes are
// materialized once per schema, not once per object; long strings and
// values beyond the table's bound are plain copies.
func TestDecodeInternsShortStrings(t *testing.T) {
	var tab internTable
	short, long := []byte("part-type3"), []byte("a string longer than sixteen bytes")
	if got := tab.get(short); got != "part-type3" {
		t.Fatalf("get = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tab.get(short) }); n != 0 {
		t.Errorf("a repeated short string allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = tab.get(long) }); n != 1 {
		t.Errorf("a long string allocates %.0f times, want its copy", n)
	}
	if tab.get(nil) != "" {
		t.Error("empty value")
	}
	for i := 0; i < 2*internMaxValues; i++ {
		v := fmt.Sprintf("k%d", i)
		if got := tab.get([]byte(v)); got != v {
			t.Fatalf("get(%q) = %q", v, got)
		}
	}
	if len(tab.m) != internMaxValues {
		t.Errorf("table holds %d values, bound is %d", len(tab.m), internMaxValues)
	}
}
