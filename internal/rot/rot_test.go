package rot

import (
	"testing"

	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
)

func testObj(serial uint64) *object.MemObject {
	s := object.NewSchema()
	typ := s.MustDefine("T", object.Field{Name: "v", Kind: object.KindInt})
	return object.New(typ, oid.MustNew(1, serial))
}

func TestRegisterLookupUnregister(t *testing.T) {
	tab := New()
	obj := testObj(1)
	obj.Page, obj.Slot = page.NewPageID(0, 3), 7
	tab.Register(obj)
	if got := tab.Lookup(obj.OID); got != obj || got.Page != page.NewPageID(0, 3) || got.Slot != 7 {
		t.Fatal("lookup mismatch")
	}
	if tab.Lookup(oid.MustNew(1, 99)) != nil {
		t.Error("missing OID resolved")
	}
	if tab.Len() != 1 {
		t.Errorf("len = %d", tab.Len())
	}
	tab.Unregister(obj.OID)
	if tab.Lookup(obj.OID) != nil || tab.Len() != 0 {
		t.Error("unregister failed")
	}
}

func TestRegisterReplaces(t *testing.T) {
	tab := New()
	a := testObj(1)
	b := testObj(1) // same OID, new representation
	b.Slot = 1
	tab.Register(a)
	tab.Register(b)
	if got := tab.Lookup(a.OID); got != b || got.Slot != 1 {
		t.Error("replacement did not take effect")
	}
	if tab.Len() != 1 {
		t.Errorf("len = %d", tab.Len())
	}
}

func TestRangeAndOIDs(t *testing.T) {
	tab := New()
	for i := uint64(1); i <= 5; i++ {
		tab.Register(testObj(i))
	}
	oids := map[oid.OID]int{}
	tab.Range(func(obj *object.MemObject) bool { oids[obj.OID]++; return true })
	if len(oids) != 5 {
		t.Errorf("range saw OIDs %v", oids)
	}
	for id, n := range oids {
		if n != 1 {
			t.Errorf("range visited %v %d times", id, n)
		}
	}
	seen := 0
	tab.Range(func(*object.MemObject) bool { seen++; return false })
	if seen != 1 {
		t.Error("range did not stop")
	}
}
