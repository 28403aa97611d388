package storage

import (
	"encoding/binary"
	"testing"

	"gom/internal/oid"
	"gom/internal/page"
)

// fuzzSeedLog builds a small valid log image for the fuzz corpus: header
// plus one record of every compact type. The page-image record type is
// deliberately absent — its 4 KiB payload bloats every derived corpus
// entry for no decoder coverage the deterministic tests don't already
// have (mutations of it are rejected by CRC long before the body is
// looked at).
func fuzzSeedLog(tb testing.TB) []byte {
	tb.Helper()
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], 0)
	data := hdr

	seg := func(typ byte, body ...byte) {
		data = append(data, walFrame(append([]byte{typ}, body...))...)
	}
	seg(walRecSegCreate, 1, 0)
	seg(walRecEnsurePages, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	pot := make([]byte, 26)
	binary.LittleEndian.PutUint64(pot, 1)                                           // tx
	binary.LittleEndian.PutUint64(pot[8:], uint64(oid.NewGeneratorAt(1, 1).Next())) // oid
	binary.LittleEndian.PutUint64(pot[16:], uint64(page.NewPageID(1, 0)))
	seg(walRecPotPut, pot...)
	seg(walRecPotDelete, pot[:16]...)
	seg(walRecCommit, 1, 0, 0, 0, 0, 0, 0, 0)
	seg(walRecAbort, 2, 0, 0, 0, 0, 0, 0, 0)
	return data
}

// FuzzWALDecode hammers the log scanner with corrupt, truncated, and
// bit-flipped inputs. Whatever the bytes, the scanner must never panic,
// must report a valid prefix within the input, and must stop at the first
// record that fails its framing or CRC — so a rescan of the reported
// prefix is clean and yields the same records.
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSeedLog(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:walHeaderLen]) // header only
	f.Add([]byte{})
	f.Add([]byte("GOMWAL01"))
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderLen+walFrameHdr] ^= 0x01 // corrupt first record type
	f.Add(flipped)
	huge := append([]byte(nil), valid[:walHeaderLen+4]...)
	binary.LittleEndian.PutUint32(huge[walHeaderLen:], 1<<31) // insane length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, recs, valid, reason := scanWAL(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", valid, len(data))
		}
		if valid == 0 {
			if len(recs) != 0 {
				t.Fatalf("no valid prefix but %d records", len(recs))
			}
			return
		}
		if valid < walHeaderLen {
			t.Fatalf("valid prefix %d shorter than the header", valid)
		}
		if int64(len(data)) > valid && reason == "" {
			t.Fatalf("scan stopped at %d of %d bytes without a reason", valid, len(data))
		}
		for i, r := range recs {
			if r.end > valid {
				t.Fatalf("record %d ends at %d past valid prefix %d", i, r.end, valid)
			}
		}
		// Rescanning the valid prefix must be clean and idempotent — this
		// is exactly what recovery relies on after truncating the tail.
		epoch2, recs2, valid2, reason2 := scanWAL(data[:valid])
		if epoch2 != epoch || valid2 != valid || len(recs2) != len(recs) || reason2 != "" {
			t.Fatalf("rescan diverged: epoch %d/%d, valid %d/%d, records %d/%d, reason %q",
				epoch, epoch2, valid, valid2, len(recs), len(recs2), reason2)
		}
	})
}
