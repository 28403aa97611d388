package server

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/coherence"
	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/trace"
)

// Callback/lease cache coherence (DESIGN.md "Cache coherence").
//
// A server started with EnableCoherence advertises featureCoherence in its
// hello response. On a connection that negotiated it, every ReadPage /
// ReadPages registers the connection's interest in
// the pages served; a committed write — a transaction commit's X-locked
// page set — pushes an opInvalidate frame to every other interested
// connection and waits (bounded by the ack timeout) until each has
// acknowledged with opCoherenceAck. The
// synchronous ack-wait is what makes the protocol strong enough for the
// linearizability checker: by the time a writer's commit returns, every
// subscribed cache has promised to re-fault the changed pages.
//
// A snapshot session reads a frozen past and registers nothing; what keeps
// a cache filled under snapshots right from one read point to the next is
// the change log (changelog.go): every write is logged before it can become
// visible, and a snapshot begin answers with the pages changed since the
// connection's previous read point.
//
// The lease is the degraded path: a client that cannot be reached within
// the ack timeout has, by construction, received no frame for at least
// that long — its client-side lease (clients must configure a lease no
// longer than the server's ack timeout) has expired and it must stop
// serving cached pages until traffic resumes. Leases, not the callbacks,
// bound staleness under dropped frames, dead clients, and server crashes.

// DefaultAckTimeout bounds how long an invalidation round waits for
// client acknowledgements; it is also the server-side lease horizon (a
// client silent for this long is presumed lease-expired).
const DefaultAckTimeout = 2 * time.Second

// CoherenceOptions configures EnableCoherence.
type CoherenceOptions struct {
	// MaxEntries bounds the interest table's (page, client)
	// registrations; 0 selects coherence.DefaultCap. Registrations past
	// the bound are revoked with an immediate revocation push.
	MaxEntries int
	// AckTimeout bounds a commit's invalidation round — its pushes and
	// the synchronous wait for their acknowledgements; 0 selects
	// DefaultAckTimeout. Clients must configure their lease at or below
	// this value.
	AckTimeout time.Duration
}

// coherenceState is the per-server coherence machinery.
type coherenceState struct {
	table      *coherence.Table
	ackTimeout time.Duration
	nextID     atomic.Uint64

	mu    sync.Mutex
	conns map[coherence.ClientID]*cohConn

	// log remembers which pages recent writes changed, for the snapshot
	// sessions that register no interest (changelog.go).
	log changeLog
}

// cohConn is the push endpoint of one coherence-negotiated connection.
// Pushes take the connection's write lock, the one the executor takes to
// write each answer, so frames leave in the order they took it — one FIFO
// per connection: a push written after an answer is behind it on the wire,
// and the client's read loop meets them in that order (the staged-page
// drop rule, client_tx.go, depends on it).
type cohConn struct {
	id coherence.ClientID
	w  *connWriter

	mu      sync.Mutex
	closed  bool
	acked   uint64 // highest acknowledged epoch
	waiters []*ackWaiter
}

// ackWaiter tracks one invalidation round's outstanding acknowledgements.
type ackWaiter struct {
	epoch     uint64
	remaining atomic.Int64
	done      chan struct{}
}

func (w *ackWaiter) dec() {
	if w.remaining.Add(-1) == 0 {
		close(w.done)
	}
}

// EnableCoherence switches the callback/lease coherence protocol on. Call
// before clients connect; connections negotiated earlier stay
// non-coherent. Enabling is one-way, and only ServeTx's servers can: a
// commit is what pushes.
func (s *TCPServer) EnableCoherence(opt CoherenceOptions) error {
	if s.tx == nil {
		return errNotTransactional
	}
	to := opt.AckTimeout
	if to <= 0 {
		to = DefaultAckTimeout
	}
	st := &coherenceState{
		table:      coherence.NewTable(opt.MaxEntries),
		ackTimeout: to,
		conns:      make(map[coherence.ClientID]*cohConn),
	}
	s.coh.Store(st)
	return nil
}

// CoherenceEnabled reports whether the server offers featureCoherence.
func (s *TCPServer) CoherenceEnabled() bool { return s.coh.Load() != nil }

// CoherenceInterest returns the live (page, client) registration count, 0
// when coherence is off. Exposed for tests and the debug endpoint.
func (s *TCPServer) CoherenceInterest() int {
	if st := s.coh.Load(); st != nil {
		return st.table.Len()
	}
	return 0
}

// attach registers a freshly negotiated connection and returns its push
// endpoint.
func (st *coherenceState) attach(w *connWriter) *cohConn {
	cc := &cohConn{id: coherence.ClientID(st.nextID.Add(1)), w: w}
	st.mu.Lock()
	st.conns[cc.id] = cc
	st.mu.Unlock()
	return cc
}

// detach tears a connection's coherence state down: its registrations are
// dropped and every invalidation round still waiting on it is released
// (a vanished subscriber owes no ack; its lease handles staleness).
func (st *coherenceState) detach(cc *cohConn, obs *metrics.Registry) {
	st.mu.Lock()
	delete(st.conns, cc.id)
	st.mu.Unlock()
	st.table.Disconnect(cc.id)
	syncInterestGauge(st, obs)
	cc.mu.Lock()
	cc.closed = true
	waiters := cc.waiters
	cc.waiters = nil
	cc.mu.Unlock()
	for _, w := range waiters {
		w.dec()
	}
}

// lookupConn resolves a client ID to its live push endpoint.
func (st *coherenceState) lookupConn(cid coherence.ClientID) *cohConn {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.conns[cid]
}

// ack records an acknowledged epoch and releases every waiter it
// satisfies (acks are cumulative: acking epoch e acknowledges every
// round up to e).
func (cc *cohConn) ack(epoch uint64) {
	cc.mu.Lock()
	if epoch > cc.acked {
		cc.acked = epoch
	}
	var freed []*ackWaiter
	live := cc.waiters[:0]
	for _, w := range cc.waiters {
		if w.epoch <= cc.acked {
			freed = append(freed, w)
		} else {
			live = append(live, w)
		}
	}
	cc.waiters = live
	cc.mu.Unlock()
	for _, w := range freed {
		w.dec()
	}
}

// push writes one invalidation frame to this connection and, when w is
// not nil, makes w wait for its ack — unless the ack is already in.
// Returns false when the connection is already closed, or when the frame
// is not on the wire by deadline: the peer has stopped reading while an
// invalidation is owed, and the connection is closed rather than allowing
// a silently stale cache to live on.
func (cc *cohConn) push(epoch uint64, pids []page.PageID, w *ackWaiter, deadline time.Time) bool {
	cc.mu.Lock()
	closed := cc.closed
	cc.mu.Unlock()
	if closed {
		return false
	}
	f := getFrame()
	f.inline = encodeInvalidation(f.scratch[:0], epoch, pids)
	f.encode(opInvalidate, 0)
	if !cc.w.writeBy(f, deadline) {
		// The client's lease (no frames received) takes over; its
		// conn-failure path drops the whole cache.
		return false
	}
	if w != nil {
		cc.mu.Lock()
		if !cc.closed && epoch > cc.acked {
			w.remaining.Add(1)
			cc.waiters = append(cc.waiters, w)
		}
		cc.mu.Unlock()
	}
	return true
}

// encodeInvalidation appends the opInvalidate payload — epoch, count,
// page IDs — to dst (which may be a stack scratch buffer).
func encodeInvalidation(dst []byte, epoch uint64, pids []page.PageID) []byte {
	var tmp [12]byte
	binary.LittleEndian.PutUint64(tmp[:8], epoch)
	binary.LittleEndian.PutUint32(tmp[8:], uint32(len(pids)))
	dst = append(dst, tmp[:]...)
	for _, pid := range pids {
		binary.LittleEndian.PutUint64(tmp[:8], uint64(pid))
		dst = append(dst, tmp[:8]...)
	}
	return dst
}

// decodeInvalidation parses an opInvalidate payload (after the request
// ID). It rejects truncated, oversized, and length-inconsistent payloads.
func decodeInvalidation(b []byte) (epoch uint64, pids []page.PageID, err error) {
	if len(b) < 12 {
		return 0, nil, fmt.Errorf("%w: invalidation payload %d bytes", errProtocol, len(b))
	}
	epoch = binary.LittleEndian.Uint64(b)
	n := binary.LittleEndian.Uint32(b[8:])
	if n > maxInvalidationPages || len(b) != 12+int(n)*8 {
		return 0, nil, fmt.Errorf("%w: invalidation count %d for %d bytes", errProtocol, n, len(b))
	}
	pids = make([]page.PageID, n)
	for i := range pids {
		pids[i] = page.PageID(binary.LittleEndian.Uint64(b[12+i*8:]))
	}
	return epoch, pids, nil
}

// maxInvalidationPages bounds one invalidation frame. Larger page sets
// are split across frames (same epoch) by the push path.
const maxInvalidationPages = 4096

// clientID returns the endpoint's coherence ID; 0 for a nil endpoint (a
// non-coherent connection).
func (cc *cohConn) clientID() coherence.ClientID {
	if cc == nil {
		return 0
	}
	return cc.id
}

// syncInterestGauge settles the interest gauges onto the table's live
// registration count and eviction-queue length. Concurrent syncs can
// transiently disagree; each corrects the last.
func syncInterestGauge(st *coherenceState, obs *metrics.Registry) {
	if obs == nil {
		return
	}
	size, queue := st.table.Sizes()
	obs.GaugeAdd(metrics.GaugeCoherenceInterest, int64(size)-obs.GaugeValue(metrics.GaugeCoherenceInterest))
	obs.GaugeAdd(metrics.GaugeCoherenceQueue, int64(queue)-obs.GaugeValue(metrics.GaugeCoherenceQueue))
}

// register records cc's interest in pid, pushing revocations for any
// registrations the capacity bound displaced.
func (s *TCPServer) register(st *coherenceState, cc *cohConn, pid page.PageID) {
	evicted := st.table.Register(pid, cc.id)
	s.obs.Load().Inc(metrics.CtrCoherenceRegister)
	s.revoke(st, evicted)
}

// readPageCoherent serves one page read with interest registration,
// closing the register/read/push race: interest is registered before the
// image is read, and if an invalidation round consumed the registration
// while the read was in flight, the image may predate a committed write
// whose callback this client already missed — re-register and re-read.
// Bounded retries keep a pathological commit storm from starving the
// read; exhaustion surfaces as a transient error the client may retry.
//
// The page's directory is read with the image — one published state of
// the page, inside the same window — so the addresses a client takes from
// it are invalidated exactly when the image is.
func (s *TCPServer) readPageCoherent(backend dirPageReader, cc *cohConn, pid page.PageID) ([]byte, page.Directory, error) {
	st := s.coh.Load()
	if st == nil || cc == nil {
		return backend.readPageDir(pid)
	}
	for attempt := 0; attempt < 8; attempt++ {
		s.register(st, cc, pid)
		img, dir, err := backend.readPageDir(pid)
		if err != nil {
			return nil, nil, err
		}
		if st.table.StillRegistered(pid, cc.id) {
			syncInterestGauge(st, s.obs.Load())
			return img, dir, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: coherence registration churned during read", ErrTransient)
}

// readPagesCoherent is readPageCoherent over a page run: every page of the
// run — including pages the client may never deref — is registered before
// the run is read and validated after, so each honors invalidation like a
// page read alone.
func (s *TCPServer) readPagesCoherent(backend dirPageReader, cc *cohConn, pid page.PageID, n int) ([][]byte, []page.Directory, error) {
	st := s.coh.Load()
	if st == nil || cc == nil {
		return backend.readPagesDir(pid, n)
	}
	for attempt := 0; attempt < 8; attempt++ {
		for i := 0; i < n; i++ {
			s.register(st, cc, pid+page.PageID(i))
		}
		imgs, dirs, err := backend.readPagesDir(pid, n)
		if err != nil {
			return nil, nil, err
		}
		// Only the pages actually served need to remain registered; the
		// surplus registrations (a run truncated at end-of-segment) age
		// out through the capacity FIFO.
		ok := true
		for i := range imgs {
			if !st.table.StillRegistered(pid+page.PageID(i), cc.id) {
				ok = false
				break
			}
		}
		if ok {
			syncInterestGauge(st, s.obs.Load())
			return imgs, dirs, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: coherence registration churned during read", ErrTransient)
}

// revoke pushes revocation invalidations for capacity-evicted
// registrations. Revocations are asynchronous (no ack-wait): the evicted
// client is logically uncached for those pages from here on, and the push
// tells it to drop any copy it still holds.
func (s *TCPServer) revoke(st *coherenceState, evicted []coherence.Eviction) {
	if len(evicted) == 0 {
		return
	}
	obs := s.obs.Load()
	epoch := st.table.Epoch()
	deadline := time.Now().Add(st.ackTimeout)
	for _, ev := range evicted {
		obs.Inc(metrics.CtrCoherenceRevoked)
		if cc := st.lookupConn(ev.Client); cc != nil {
			cc.push(epoch, []page.PageID{ev.Page}, nil, deadline)
		}
	}
}

// coherencePush runs one invalidation round: consume the interest
// registrations for the written pages, push an opInvalidate frame to each
// other subscribed connection, and wait until every reachable one
// acknowledged. The ack timeout bounds the whole round, pushes included:
// a connection whose push is not on the wire by then is closed. writer is
// the writing connection's coherence ID (0 for a writer that dialed before
// EnableCoherence and so has no coherence endpoint).
func (s *TCPServer) coherencePush(pages []page.PageID, writer coherence.ClientID, tctx trace.Context) {
	st := s.coh.Load()
	if st == nil || len(pages) == 0 {
		return
	}
	obs := s.obs.Load()
	epoch, targets := st.table.Invalidate(pages, writer)
	syncInterestGauge(st, obs)
	if len(targets) == 0 {
		return
	}
	sp := s.tracer.Load().StartChild(spanName(&serverSpanNames, opInvalidate), tctx)
	start := obs.Now()
	deadline := time.Now().Add(st.ackTimeout)

	w := &ackWaiter{epoch: epoch, done: make(chan struct{})}
	// Pre-count with one slot held so a fast ack cannot close done while
	// pushes are still going out.
	w.remaining.Store(1)
	delivered := 0
	for cid, pids := range targets {
		cc := st.lookupConn(cid)
		if cc == nil {
			continue
		}
		if err := faultpoint.Check(faultpoint.CoherencePush); err != nil {
			// Injected callback loss: the client is never told. Its lease
			// must save it; the linearizability checker convicts if not.
			obs.Inc(metrics.CtrCoherencePushDropped)
			continue
		}
		sent := true
		for off := 0; off < len(pids) && sent; off += maxInvalidationPages {
			end := min(off+maxInvalidationPages, len(pids))
			var roundWaiter *ackWaiter
			if end == len(pids) {
				roundWaiter = w // only the last chunk carries the waiter
			}
			sent = cc.push(epoch, pids[off:end], roundWaiter, deadline)
		}
		if sent {
			delivered++
			obs.Inc(metrics.CtrCoherenceInvalSent)
		}
	}
	if delivered > 0 {
		w.dec() // release the pre-count slot
		t := time.NewTimer(time.Until(deadline))
		select {
		case <-w.done:
			t.Stop()
		case <-t.C:
			// One or more subscribers missed the round within the lease
			// horizon: they have received nothing for ackTimeout, so
			// their client-side lease has expired and they must stop
			// serving cached pages. Proceed.
			obs.Inc(metrics.CtrCoherenceAckTimeout)
		}
	}
	if sp.Sampled() {
		sp.SetArgs(uint64(len(pages)), uint64(delivered))
		sp.Finish()
	}
	obs.RPCSinceTrace(metrics.RPCInvalidate, start, tctx.TraceID)
}

// loggedWrite is a write between logWrite and settleWrite.
type loggedWrite struct {
	seq    uint64
	stable uint64 // the stable point once the entry was in the log
}

// logWrite enters a write of pages that is about to happen into the change
// log.
func (s *TCPServer) logWrite(st *coherenceState, pages []page.PageID) loggedWrite {
	seq := st.log.begin(pages)
	if obs := s.obs.Load(); obs != nil && seq < changeLogCap {
		// The ring is still filling: settle the gauge onto its occupancy,
		// like the interest gauges.
		obs.GaugeAdd(metrics.GaugeCoherenceChangeLog, int64(seq+1)-obs.GaugeValue(metrics.GaugeCoherenceChangeLog))
	}
	// Read after the append: a snapshot that began without seeing the entry
	// has a read-LSN at or below this, and the stamp will be above it.
	return loggedWrite{seq: seq, stable: s.mgr.Versions().StablePoint()}
}

// settleWrite ends a logged write: cancelled if it did not happen, else
// stamped with a read-LSN from which it is certainly visible — the stable
// point now, which a commit's own LSN cannot exceed, and above the stable
// point it started from, for an abort, which consumes no LSN.
func (s *TCPServer) settleWrite(st *coherenceState, w loggedWrite, happened bool) {
	if !happened {
		st.log.cancel(w.seq)
		return
	}
	st.log.stamp(w.seq, max(s.mgr.Versions().StablePoint(), w.stable+1))
}
