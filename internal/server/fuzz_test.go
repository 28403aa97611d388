package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"gom/internal/page"
)

// frame encodes one wire message the way writeMsg does, for seeding.
func frame(tb testing.TB, code byte, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeMsg(bufio.NewWriter(&buf), code, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTCPFrame throws arbitrary bytes at the length-prefixed frame decoder.
// Invariants: readMsg never panics and never allocates beyond maxMessage,
// and any frame that decodes must survive a writeMsg/readMsg round trip
// byte-identically.
func FuzzTCPFrame(f *testing.F) {
	f.Add(frame(f, opLookup, make([]byte, 8)))
	f.Add(frame(f, opReadPage, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(frame(f, opTxBegin, nil))
	f.Add(frame(f, statusOK, []byte("hello")))
	f.Add(frame(f, opWritePage, make([]byte, page.Size)))
	// Coherence frames: a push with one page, an ack, and a hello
	// offering featureCoherence.
	f.Add(frame(f, opInvalidate, append(make([]byte, 8),
		encodeInvalidation(nil, 3, []page.PageID{7})...)))
	f.Add(frame(f, opCoherenceAck, append(make([]byte, 8), 3, 0, 0, 0, 0, 0, 0, 0)))
	f.Add(frame(f, opHello, []byte{protocolV2, 0, 0, 0,
		featureBatch | featureTrace | featureSnapshot | featureCoherence, 0, 0, 0}))
	// Page-read responses with directory trailers: a
	// well-formed one, then half an extent, an empty extent, a slot past
	// the page, and a run header whose directory lengths overrun the frame.
	img := page.New(page.NewPageID(1, 0)).CloneImage()
	resp := func(trailer ...byte) []byte {
		return frame(f, statusOK, append(append(make([]byte, 8), img...), trailer...))
	}
	f.Add(resp(7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0))
	f.Add(resp(7, 0, 0, 0, 0, 0))
	f.Add(resp(7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(resp(7, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 1, 0))
	f.Add(frame(f, statusOK, append(append(make([]byte, 8), 2, 0, 0, 0, 12, 0, 0xff, 0xff), img...)))
	f.Add(frame(f, opHello, []byte{protocolV2, 0, 0, 0, clientFeatures, 0, 0, 0}))
	// Lookup answers: the address alone, the address with its page and a
	// one-extent directory, and that answer cut short inside the address,
	// inside the image and inside the extent.
	withPage := append(append(make([]byte, 8+10), img...), 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0)
	for _, n := range []int{8 + 10, len(withPage), 8 + 4, 8 + 10 + page.Size/2, len(withPage) - 5} {
		f.Add(frame(f, statusOK, withPage[:n]))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // absurd length
	f.Add([]byte{10, 0, 0, 0, opLookup})     // truncated body
	for _, tc := range refusalCases(f) {
		f.Add(tc.sent)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		code, payload, err := readMsg(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // malformed input must fail cleanly, which it just did
		}
		if len(payload)+1 > maxMessage {
			t.Fatalf("decoded %d payload bytes, above maxMessage %d", len(payload), maxMessage)
		}
		var buf bytes.Buffer
		if err := writeMsg(bufio.NewWriter(&buf), code, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		code2, payload2, err := readMsg(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if code2 != code || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip mismatch: code %d->%d, payload %d->%d bytes",
				code, code2, len(payload), len(payload2))
		}
		// Read as a page-read response, the payload past the request ID
		// either fails the client's check or splits into an image and a
		// well-formed directory within the shipping cap.
		if len(payload) >= 8 && validPageRead(payload[8:]) {
			img, dir, _ := page.SplitImage(payload[8:])
			if len(img) != page.Size || dir.Len() > page.MaxShippedExtents || dir.Check() != nil {
				t.Fatalf("accepted a page read of %d bytes with %d extents", len(payload)-8, dir.Len())
			}
		}
		// Read as a Lookup answer, it is refused, or it is ten address
		// bytes and then nothing or one well-formed page read.
		if len(payload) >= 8 {
			addr, pg, err := splitLookup(payload[8:])
			if err == nil && (len(addr) != 10 || len(addr)+len(pg) != len(payload)-8 || (pg != nil && !validPageRead(pg))) {
				t.Fatalf("a lookup answer of %d bytes split into %d address and %d page bytes", len(payload)-8, len(addr), len(pg))
			}
		}
	})
}

// FuzzInvalidationFrame throws arbitrary bytes at the opInvalidate
// payload decoder. Invariants: decodeInvalidation never panics, rejects
// truncated, oversized, and length-inconsistent payloads with errProtocol,
// never admits more than maxInvalidationPages, and everything it accepts
// round-trips byte-identically through encodeInvalidation.
func FuzzInvalidationFrame(f *testing.F) {
	f.Add(encodeInvalidation(nil, 1, nil))
	f.Add(encodeInvalidation(nil, 7, []page.PageID{1, 2, 3}))
	f.Add(encodeInvalidation(nil, ^uint64(0), []page.PageID{page.PageID(^uint64(0))}))
	f.Add([]byte{})
	f.Add(make([]byte, 11))                                        // one byte short of a header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0})        // count 65535, no pages
	f.Add(append(encodeInvalidation(nil, 3, []page.PageID{9}), 0)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, pids, err := decodeInvalidation(data)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("rejection is not errProtocol: %v", err)
			}
			return
		}
		if len(pids) > maxInvalidationPages {
			t.Fatalf("decoded %d pages, above maxInvalidationPages %d", len(pids), maxInvalidationPages)
		}
		if len(data) != 12+8*len(pids) {
			t.Fatalf("accepted %d bytes for %d pages", len(data), len(pids))
		}
		if !bytes.Equal(encodeInvalidation(nil, epoch, pids), data) {
			t.Fatal("encode/decode round trip not byte-identical")
		}
	})
}

// FuzzSnapshotBegunFrame throws arbitrary bytes at the opTxBeginSnapshot
// answer decoder. Invariants: decodeSnapshotBegun never panics, rejects
// truncated, oversized and length-inconsistent payloads with errProtocol,
// never admits more than maxInvalidationPages, and everything it accepts
// round-trips byte-identically through appendChanged.
func FuzzSnapshotBegunFrame(f *testing.F) {
	head := make([]byte, 16)
	binary.LittleEndian.PutUint64(head, 4)
	binary.LittleEndian.PutUint64(head[8:], 2)
	f.Add(head)                                          // a connection without coherence
	f.Add(appendChanged(slices.Clone(head), nil, false)) // cannot tell
	f.Add(appendChanged(slices.Clone(head), nil, true))  // nothing changed
	f.Add(appendChanged(slices.Clone(head), []page.PageID{1, 2, page.PageID(^uint64(0))}, true))
	f.Add([]byte{})
	f.Add(head[:15])
	f.Add(append(slices.Clone(head), 1, 0, 0))                                           // a cut count
	f.Add(append(slices.Clone(head), 0xff, 0xff, 0, 0))                                  // count 65535, no pages
	f.Add(append(appendChanged(slices.Clone(head), nil, false), 0, 0, 0, 0, 0, 0, 0, 0)) // cannot tell, and a page
	f.Add(append(appendChanged(slices.Clone(head), []page.PageID{9}, true), 0))          // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		sb, err := decodeSnapshotBegun(data)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("rejection is not errProtocol: %v", err)
			}
			return
		}
		if len(sb.changed) > maxInvalidationPages {
			t.Fatalf("decoded %d pages, above maxInvalidationPages %d", len(sb.changed), maxInvalidationPages)
		}
		if sb.all && (!sb.validated || sb.changed != nil) {
			t.Fatalf("a cannot-tell answer decoded as %+v", sb)
		}
		again := slices.Clone(data[:16])
		if sb.validated {
			again = appendChanged(again, sb.changed, !sb.all)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("encode/decode round trip not byte-identical")
		}
		if got := binary.LittleEndian.Uint64(data[8:]); sb.readLSN != got {
			t.Fatalf("read-LSN %d decoded as %d", got, sb.readLSN)
		}
	})
}

// TestReadMsgRejectsBadLengths pins the two length-check branches: a length
// of zero and a length beyond maxMessage must both produce errProtocol
// before any body allocation is attempted.
func TestReadMsgRejectsBadLengths(t *testing.T) {
	for _, n := range []uint32{0, maxMessage + 1, 1 << 31, 0xffffffff} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		_, _, err := readMsg(bufio.NewReader(bytes.NewReader(hdr[:])))
		if !errors.Is(err, errProtocol) {
			t.Errorf("length %d: err = %v, want errProtocol", n, err)
		}
	}
}

// TestReadMsgTruncated checks that a frame cut off mid-body reports the
// read error instead of returning a short payload.
func TestReadMsgTruncated(t *testing.T) {
	msg := frame(t, opLookup, make([]byte, 8))
	for cut := 1; cut < len(msg); cut++ {
		_, _, err := readMsg(bufio.NewReader(bytes.NewReader(msg[:cut])))
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(msg))
		}
	}
}

// TestFrameRoundTripLargest round-trips the biggest legal payload.
func TestFrameRoundTripLargest(t *testing.T) {
	payload := make([]byte, maxMessage-1)
	for i := range payload {
		payload[i] = byte(i)
	}
	code, got, err := readMsg(bufio.NewReader(bytes.NewReader(frame(t, opWritePage, payload))))
	if err != nil {
		t.Fatal(err)
	}
	if code != opWritePage || !bytes.Equal(got, payload) {
		t.Fatalf("largest frame mangled: code %d, %d bytes", code, len(got))
	}
	// One byte more must be rejected by the decoder.
	over := frame(t, opWritePage, make([]byte, maxMessage))
	if _, _, err := readMsg(bufio.NewReader(bytes.NewReader(over))); !errors.Is(err, errProtocol) {
		t.Fatalf("oversize frame: err = %v, want errProtocol", err)
	}
}
