package core

import (
	"errors"

	"gom/internal/metrics"
	"gom/internal/page"
)

// Client-side application of coherence invalidations (the server side
// lives in internal/server; DESIGN.md "Cache coherence").
//
// Invalidations arrive on the TCP client's read-loop goroutine, which
// must never block on — or reenter — the object manager — and, for the
// pages a snapshot begin names as changed since the last one, on the
// goroutine that called BeginSnapshotTx. They are the only entries of the
// object manager another goroutine may call, so the handlers here only
// queue: NoteInvalidated records the pages under cohMu and sets an atomic
// flag. Every OM operation checks the flag on entry (hitViable sends it
// down the structural path, to takeDeferredErr) and applies the queued
// invalidations before doing anything else: each page is dropped from
// the buffer pool through the eviction hook, which displaces the
// objects materialized from the stale image — un-swizzling references,
// draining RRLs, invalidating descriptors — so the next dereference
// re-faults the fresh page from the server.
//
// An operation that overlaps the invalidation's arrival may still see
// the old value — that is a legal linearization (the read overlaps the
// write). What cannot happen is an operation *started after* the
// invalidation was acknowledged observing the old page: the ack is sent
// only after the pages are queued, and every operation applies the queue
// before touching object state.

// NoteInvalidated queues remotely rewritten pages for application at the
// next operation boundary. Safe to call from any goroutine; installed as
// the TCP client's OnInvalidate handler by New.
func (om *OM) NoteInvalidated(_ uint64, pids []page.PageID) {
	if len(pids) == 0 {
		return
	}
	om.cohMu.Lock()
	om.cohPending = append(om.cohPending, pids...)
	om.cohFlag.Store(true)
	om.cohMu.Unlock()
}

// NoteLeaseExpired queues a whole-cache invalidation: the connection has
// been silent past its lease (or died), or a snapshot begin could not name
// what changed since the last one, so no cached page can be trusted.
// Installed as the TCP client's OnLeaseExpired handler by New.
func (om *OM) NoteLeaseExpired() {
	om.cohMu.Lock()
	om.cohAll = true
	om.cohFlag.Store(true)
	om.cohMu.Unlock()
}

// applyInvalidations drains the coherence queue: every queued page (or,
// after lease expiry, every buffered page) is evicted through the
// displacement machinery. Pinned frames cannot be dropped under the Pin
// contract; they are requeued and retried at the next operation
// boundary. Runs at operation start, on the owner's goroutine — the same
// context as any other eviction.
func (om *OM) applyInvalidations() {
	om.cohMu.Lock()
	pids := om.cohPending
	all := om.cohAll
	om.cohPending = nil
	om.cohAll = false
	om.cohFlag.Store(false)
	om.cohMu.Unlock()

	if all {
		// Lease expired: nothing fetched before now can be trusted.
		// Locally dirty frames survive (they are newer than the server,
		// not older); everything else goes.
		clear(om.addrHints)
		pids = append(om.pool.Pages(), pids...)
	}
	var requeue []page.PageID
	for _, pid := range pids {
		om.dropHints(pid) // whether or not the page is buffered
		done, err := om.pool.Invalidate(pid)
		if err != nil {
			om.deferredErr = errors.Join(om.deferredErr, err)
			continue
		}
		if !done {
			requeue = append(requeue, pid)
			continue
		}
		om.obs.Inc(metrics.CtrCoherenceInvalApplied)
	}
	if len(requeue) > 0 {
		om.cohMu.Lock()
		om.cohPending = append(om.cohPending, requeue...)
		om.cohFlag.Store(true)
		om.cohMu.Unlock()
	}
}

// coherenceWirer is the optional server capability the OM auto-wires to:
// the TCP client implements it; embedded/local servers do not.
type coherenceWirer interface {
	HasCoherence() bool
	OnInvalidate(func(epoch uint64, pids []page.PageID))
	OnLeaseExpired(func())
}
