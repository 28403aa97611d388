package server

import (
	"encoding/binary"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/trace"
)

// Client side of the callback/lease coherence protocol (coherence.go has
// the server side and the protocol overview).
//
// On a connection that negotiated featureCoherence, the read loop
// recognizes opInvalidate pushes (request ID 0), hands the page list to
// the OnInvalidate handler installed by the cache above, and
// acknowledges with an opCoherenceAck frame — after dropping its own staged
// copies of those pages (client_tx.go). The handler is called on
// the read-loop goroutine and must not block or issue RPCs — the object
// manager's handler just queues the pages and sets a flag its next
// operation observes.
//
// The lease is the safety net for lost callbacks: LeaseTimeout of
// silence (no frames of any kind), or connection failure, fires
// OnLeaseExpired, after which the cache above must drop what it holds.

// HasCoherence reports whether the connection negotiated invalidation
// callbacks.
func (c *Client) HasCoherence() bool { return c.coherent }

// OnInvalidate installs the invalidation handler: called from the read
// loop with each pushed (epoch, pages) batch, before the push is
// acknowledged — and from BeginSnapshotTx, on its caller's goroutine and
// with epoch 0, with the pages changed since the connection's previous
// snapshot (client_tx.go). The handler must be fast and must not call back
// into the client. Install before sharing cached state; nil removes it
// (pushes are then acknowledged and dropped, correct when nothing is
// cached).
func (c *Client) OnInvalidate(fn func(epoch uint64, pids []page.PageID)) {
	if fn == nil {
		c.onInval.Store(nil)
		return
	}
	c.onInval.Store(&fn)
}

// OnLeaseExpired installs the lease-expiry handler: called when the
// connection has been silent past LeaseTimeout or has failed — and from
// BeginSnapshotTx when the server cannot name what changed since the
// connection's previous snapshot. Either way nothing cached can be trusted.
// May fire more than once. nil removes it.
func (c *Client) OnLeaseExpired(fn func()) {
	if fn == nil {
		c.onLease.Store(nil)
		return
	}
	c.onLease.Store(&fn)
}

// handleInvalidate applies one pushed invalidation frame (payload after
// the request ID) and acknowledges it.
func (c *Client) handleInvalidate(body []byte) {
	epoch, pids, err := decodeInvalidation(body)
	if err != nil {
		c.fail(err)
		return
	}
	c.obs.Inc(metrics.CtrCoherenceInvalRecv)
	c.obs.RPCFrame(metrics.RPCInvalidate, false, 4+1+8+len(body))
	c.dropStagedPages(pids)
	if fn := c.onInval.Load(); fn != nil {
		(*fn)(epoch, pids)
	}
	// Acknowledge after the handler has staged the invalidation: the ack
	// promises the server that no operation *started* after this point
	// serves the old pages. The coherence.ack fault site drops the ack —
	// the server's commit then waits out its ack timeout (lease horizon).
	if ferr := faultpoint.Check(faultpoint.CoherenceAck); ferr != nil {
		return
	}
	var ack [8]byte
	binary.LittleEndian.PutUint64(ack[:], epoch)
	frame := encodeRequest(opCoherenceAck, 0, ack[:], trace.Context{})
	n := len(*frame) // before the send: the write loop recycles the buffer
	select {
	case c.sendCh <- frame:
		c.obs.RPCFrame(metrics.RPCCoherenceAck, true, n)
	case <-c.done:
		putBuf(frame)
	}
}

// leaseLoop is the lease watchdog: it fires the lease handler once per
// silence episode longer than the configured timeout. It exits with the
// read loop.
func (c *Client) leaseLoop() {
	defer c.wg.Done()
	interval := c.leaseTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			silent := time.Since(time.Unix(0, c.lastRecv.Load()))
			if silent >= c.leaseTimeout {
				c.fireLease()
			}
		}
	}
}

// fireLease invokes the lease handler once per silence episode.
func (c *Client) fireLease() {
	if !c.leaseFired.CompareAndSwap(false, true) {
		return
	}
	c.obs.Inc(metrics.CtrCoherenceLeaseExpired)
	c.dropStaged()
	if fn := c.onLease.Load(); fn != nil {
		(*fn)()
	}
}
