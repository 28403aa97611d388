package server

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"gom/internal/page"
)

// The log of committed page changes behind "Snapshot begin is a validation
// point" (DESIGN.md "Cache coherence").
//
// A snapshot session registers no interest, so no push tells its client
// what changed between two of its read points. The begin does: the client
// names its previous read-LSN and the answer lists the pages changed since,
// taken from this log. Three rules make the list safe to trust:
//
// Logged before visible. A write is appended as a pending entry before it
// can become visible to any snapshot and stamped afterwards with a read-LSN
// at which it certainly is visible (the stable point after a commit, at
// least the commit's own LSN). A pending entry matches every query: its
// write may or may not be visible to the asking snapshot, and dropping a
// page that did not change costs one re-read. A write that fails cancels
// its entry.
//
// Read point first, then the log. The begin acquires its snapshot and only
// then calls since: whatever that snapshot can see was appended before it
// became visible, so since finds it, pending or stamped. Pages changed after
// the new read point may be listed too; that is over-invalidation, the safe
// side.
//
// Bounded, and honest at the bound. The ring keeps the last changeLogCap
// entries and remembers the highest stamp it has dropped; a query it cannot
// answer completely — from before that floor, without a previous read-LSN
// — says so, and the client drops its whole cache.

// changeLogCap is the number of writes the log remembers. A reader that
// begins a snapshot at least once per changeLogCap commits of everyone else
// gets lists; a slower one pays a whole-cache drop, which is what it paid
// at every begin before the log existed.
const changeLogCap = 1024

type entryState uint8

const (
	entryPending entryState = iota
	entryStamped
	entryCancelled
)

// changeEntry is one write: a transaction's X-locked page set.
type changeEntry struct {
	state entryState
	stamp uint64
	pages []page.PageID
}

type changeLog struct {
	mu   sync.Mutex
	ring [changeLogCap]changeEntry
	// next is the sequence number the next entry gets; the ring holds the
	// entries [next-changeLogCap, next), entry seq in slot seq%changeLogCap.
	next uint64
	// floor is the highest stamp dropped from the ring. lost counts the
	// entries dropped while still pending: until each is stamped (raising
	// floor) or cancelled, no query can be answered.
	floor uint64
	lost  int
}

// begin appends a pending entry for a write of pages and returns its
// sequence number.
func (l *changeLog) begin(pages []page.PageID) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.next
	l.next++
	e := &l.ring[seq%changeLogCap]
	if seq >= changeLogCap { // the slot holds the entry changeLogCap before this one
		switch e.state {
		case entryPending:
			l.lost++
		case entryStamped:
			l.floor = max(l.floor, e.stamp)
		}
	}
	*e = changeEntry{state: entryPending, pages: pages}
	return seq
}

// stamp settles entry seq: the write is visible at every read point from
// stamp on.
func (l *changeLog) stamp(seq, stamp uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq+changeLogCap < l.next {
		l.lost--
		l.floor = max(l.floor, stamp)
		return
	}
	e := &l.ring[seq%changeLogCap]
	e.state, e.stamp = entryStamped, stamp
}

// cancel settles entry seq as a write that did not happen.
func (l *changeLog) cancel(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq+changeLogCap < l.next {
		l.lost--
		return
	}
	l.ring[seq%changeLogCap] = changeEntry{state: entryCancelled}
}

// since lists the pages of every write that may be visible at a read point
// acquired before the call and was not visible at read point prev, each
// page once, ascending. ok is false when the log cannot tell: prev is 0
// (the caller has no previous read point), the ring has dropped entries
// stamped above prev, or the list would not fit one frame.
func (l *changeLog) since(prev uint64) (pages []page.PageID, ok bool) {
	if prev == 0 {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev < l.floor || l.lost > 0 {
		return nil, false
	}
	n := min(l.next, changeLogCap)
	for i := range l.ring[:n] {
		e := &l.ring[i]
		if e.state == entryCancelled || e.state == entryStamped && e.stamp <= prev {
			continue
		}
		pages = append(pages, e.pages...)
	}
	slices.Sort(pages)
	pages = slices.Compact(pages)
	if len(pages) > maxInvalidationPages {
		return nil, false
	}
	return pages, true
}

// len is the number of writes the ring holds.
func (l *changeLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(min(l.next, changeLogCap))
}

// The opTxBeginSnapshot answer on a connection that validates: {tx,
// readLSN}, then a uint32 page count and that many page IDs — or
// changedUnknown and nothing, when the log cannot tell.
const changedUnknown = ^uint32(0)

// appendChanged appends what since answered to the 16-byte {tx, readLSN}.
func appendChanged(dst []byte, pages []page.PageID, ok bool) []byte {
	if !ok {
		return binary.LittleEndian.AppendUint32(dst, changedUnknown)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, pid := range pages {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(pid))
	}
	return dst
}

// snapshotBegun is a decoded opTxBeginSnapshot answer.
type snapshotBegun struct {
	readLSN uint64
	// validated: the answer says what changed since the previous read-LSN
	// the request named — changed, or with all set, possibly everything.
	validated bool
	all       bool
	changed   []page.PageID
}

// decodeSnapshotBegun parses an opTxBeginSnapshot answer (after the request
// ID): the bare 16 bytes, or 16 bytes and a page list. It rejects
// truncated, oversized and length-inconsistent payloads.
func decodeSnapshotBegun(b []byte) (snapshotBegun, error) {
	if len(b) != 16 && len(b) < 20 {
		return snapshotBegun{}, fmt.Errorf("%w: snapshot begin answer of %d bytes", errProtocol, len(b))
	}
	sb := snapshotBegun{readLSN: binary.LittleEndian.Uint64(b[8:])}
	if len(b) == 16 {
		return sb, nil
	}
	sb.validated = true
	n := binary.LittleEndian.Uint32(b[16:])
	if n == changedUnknown && len(b) == 20 {
		sb.all = true
		return sb, nil
	}
	if n > maxInvalidationPages || len(b) != 20+int(n)*8 {
		return snapshotBegun{}, fmt.Errorf("%w: snapshot begin answer names %d pages in %d bytes", errProtocol, n, len(b))
	}
	sb.changed = make([]page.PageID, n)
	for i := range sb.changed {
		sb.changed[i] = page.PageID(binary.LittleEndian.Uint64(b[20+i*8:]))
	}
	return sb, nil
}
