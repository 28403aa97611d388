package storage

import (
	"bytes"
	"fmt"
	"testing"

	"gom/internal/oid"
)

func TestManagerSaveLoadRoundTrip(t *testing.T) {
	m := NewManager(3)
	for _, seg := range []uint16{0, 1} {
		if err := m.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	var ids []oid.OID
	for i := 0; i < 500; i++ {
		id, _, err := m.Allocate(uint16(i%2), []byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if m.Disk() == nil || m.POT().Len() != 500 {
		t.Fatal("accessors broken")
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadManager(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.POT().Len() != 500 {
		t.Fatalf("reloaded POT has %d entries", m2.POT().Len())
	}
	// Directories are not saved: the load rebuilt them from the POT.
	if err := m2.VerifyDirectories(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		rec, _, err := m2.Read(id)
		if err != nil || string(rec) != fmt.Sprintf("rec-%04d", i) {
			t.Fatalf("object %d: %q, %v", i, rec, err)
		}
	}
	// Generator state restored: new OIDs do not collide.
	nid, _, err := m2.Allocate(0, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == nid {
			t.Fatal("OID collision after reload")
		}
	}
	if nid.Volume() != 3 {
		t.Errorf("volume = %d", nid.Volume())
	}
}

func TestLoadManagerRejectsCorruptImages(t *testing.T) {
	m := NewManager(1)
	m.CreateSegment(0)
	m.Allocate(0, []byte("x"))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncations at various points must all error, not panic.
	for _, cut := range []int{0, 4, 12, len(full) / 2, len(full) - 3} {
		if _, err := LoadManager(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated image (%d bytes) accepted", cut)
		}
	}
	// Corrupt the manager magic.
	bad := append([]byte{}, full...)
	// The magic follows the disk image; find it.
	idx := bytes.Index(bad, []byte("GOMMGR01"))
	if idx < 0 {
		t.Fatal("magic not found")
	}
	bad[idx] = 'X'
	if _, err := LoadManager(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}
