package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"gom/internal/metrics"
	"gom/internal/page"
)

// The client side of "talk only when there is something to say"
// (DESIGN.md "Page-server wire protocol" and "Page directories").
//
// Lazy begin, silent commit. BeginTx sends nothing: the connection's
// transaction goes from none to deferred. The first data request while
// deferred puts opTxBegin and its own frame into one buffer — one write,
// no wait in between; the server's executor runs the begin, then the data
// request in the session it opened — and the transaction is open. CommitTx
// or AbortTx of a transaction still deferred resets the state and sends
// nothing either: the server-side transaction it leaves out would have held
// no lock, written nothing, logged no WAL record and pushed no
// invalidation, so no client can tell that it never existed. What such a transaction read, it read from pages
// cached under callbacks and the lease, exactly as a begun one reads them.
//
// The call mutex orders the deferred begin against the data requests of
// every goroutine sharing the client: the goroutine that finds the state
// deferred holds it until both answers are in, so nobody's data frame can
// reach the server ahead of the begin.
//
// A Lookup that brings its page. The read loop stages the page an opLookup
// answer carries — in frame order, so an invalidation behind it on the wire
// finds it — and the ReadPage that follows takes it instead of a round
// trip. The server ships a page only where something covers a copy the
// client holds: the connection's interest registration, the transaction's
// S-lock, or a snapshot's read point. So a staged page is dropped when an
// invalidation names it (before the ack), when the lease expires, when the
// transaction ends, when this client writes, and at Close.

// txPhase is the connection's transaction state.
type txPhase uint8

const (
	txNone     txPhase = iota // no transaction
	txDeferred                // BeginTx returned, opTxBegin not sent
	txOpen                    // opTxBegin (or opTxBeginSnapshot) sent
)

var (
	errNotTransactional = errors.New("server: not a transactional server")
	errTxOpen           = errors.New("server: transaction already open on this connection")
)

// isBoundary reports whether op is a transaction-boundary opcode — what a
// deferred begin does not ride on.
func isBoundary(op byte) bool {
	switch op {
	case opTxBegin, opTxBeginSnapshot, opTxCommit, opTxAbort:
		return true
	}
	return false
}

// enterTx moves the connection from no transaction to next, or fails the
// way the server would. The TxID it returns is a handle local to this
// client, not the server's transaction ID (a deferred begin has none yet).
// Called with the call mutex held.
func (c *Client) enterTx(next txPhase) (TxID, error) {
	if !c.transactional {
		return 0, errNotTransactional
	}
	if c.tx != txNone {
		return 0, errTxOpen
	}
	c.tx = next
	c.txSeq++
	return TxID(c.txSeq), nil
}

// BeginTx starts a transaction on this connection (the server must have
// been started with ServeTx). Nothing is sent: the begin goes out with the
// transaction's first data request, and a transaction that ends without
// one never reaches the server. The returned TxID is a non-zero handle
// local to this client.
//
// One exception keeps a lease alive: with a lease armed and nothing heard
// from the server for half of LeaseTimeout, the begin goes out now, so a
// reader whose transactions all hit its cache still renews its lease.
func (c *Client) BeginTx() (TxID, error) {
	eager := c.leaseTimeout > 0 && time.Since(time.Unix(0, c.lastRecv.Load())) >= c.leaseTimeout/2
	c.mu.Lock()
	defer c.mu.Unlock()
	if !eager {
		return c.enterTx(txDeferred)
	}
	id, err := c.enterTx(txOpen)
	if err != nil {
		return 0, err
	}
	if _, err := c.callLocked(opTxBegin, nil); err != nil {
		c.tx = txNone
		return 0, err
	}
	return id, nil
}

// BeginSnapshotTx starts a read-only snapshot transaction on this
// connection and returns a local handle and the snapshot's read-LSN: reads
// until CommitTx/AbortTx observe the frozen, durable state at that LSN and
// never block behind server-side writers. It is sent at once — the
// read-LSN is the server's to give.
//
// On a coherent connection the begin is also where the cache above is
// validated (DESIGN.md "Snapshot begin is a validation point"): the request
// names the read-LSN of this connection's previous snapshot and the answer
// the pages changed since. They go to the OnInvalidate handler (epoch 0:
// this is no push, and nothing is acknowledged) — or, when the server
// cannot tell, the OnLeaseExpired handler is called to drop everything —
// on the caller's goroutine, before BeginSnapshotTx returns. What the
// handlers were not told to drop is current at the new read point.
func (c *Client) BeginSnapshotTx() (TxID, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, err := c.enterTx(txOpen)
	if err != nil {
		return 0, 0, err
	}
	var req []byte
	if c.coherent {
		req = binary.LittleEndian.AppendUint64(nil, c.readLSN)
	}
	var sb snapshotBegun
	resp, err := c.callLocked(opTxBeginSnapshot, req)
	if err == nil {
		sb, err = decodeSnapshotBegun(resp)
	}
	if err == nil && sb.validated != c.coherent {
		err = errProtocol
	}
	if err != nil {
		c.tx = txNone
		return 0, 0, err
	}
	if sb.validated {
		c.applyChanged(sb)
		c.readLSN = sb.readLSN
	}
	return id, sb.readLSN, nil
}

// applyChanged hands what a snapshot begin said has changed to the cache
// above, through the handlers coherence pushes use.
func (c *Client) applyChanged(sb snapshotBegun) {
	if sb.all {
		// Not a lease expiry — the server is there, it just cannot name
		// the pages — so coherence_lease_expired does not count it.
		c.obs.Inc(metrics.CtrCoherenceBeginAll)
		c.dropStaged()
		if fn := c.onLease.Load(); fn != nil {
			(*fn)()
		}
		return
	}
	c.obs.Inc(metrics.CtrCoherenceBeginList)
	c.obs.AddN(metrics.CtrCoherenceBeginPages, int64(len(sb.changed)))
	c.dropStagedPages(sb.changed)
	if fn := c.onInval.Load(); fn != nil && len(sb.changed) > 0 {
		(*fn)(0, sb.changed)
	}
}

// CommitTx commits this connection's transaction. A transaction whose
// begin is still deferred ends here without a frame. A commit that fails
// leaves the transaction open, so AbortTx still reaches the server.
func (c *Client) CommitTx() error { return c.endTx(opTxCommit) }

// AbortTx aborts this connection's transaction; like CommitTx it sends
// nothing for a transaction the server never heard of. Whatever the
// server answers, the connection has no transaction afterwards.
func (c *Client) AbortTx() error { return c.endTx(opTxAbort) }

func (c *Client) endTx(op byte) error {
	c.dropStaged() // the S-locks that covered them end with the transaction
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tx == txDeferred {
		c.tx = txNone
		c.obs.Inc(metrics.CtrTxSilent)
		return nil
	}
	_, err := c.callLocked(op, nil)
	if err == nil || op == opTxAbort {
		c.tx = txNone
	}
	return err
}

// callWithBegin is the first data request of a deferred transaction: the
// begin and the request leave in one write and the call returns after both
// answers; a begin error wins, and leaves no transaction. A request
// dropped before it shipped (the rpc.send fault site) leaves the begin
// deferred. Called with the call mutex held.
func (c *Client) callWithBegin(op byte, payload []byte) ([]byte, error) {
	// One pass of the gate for each frame: the begin's, then the request's.
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := c.ready(); err != nil {
		return nil, err
	}
	bsp, dsp := c.startSpan(opTxBegin, nil), c.startSpan(op, payload)
	defer finishSpan(bsp)
	defer finishSpan(dsp)
	c.nextID += 2
	a := awaited{begin: c.nextID - 1, id: c.nextID, op: op}
	both := getBuf(requestLen(nil) + requestLen(payload))
	putRequest(putRequest(*both, opTxBegin, a.begin, nil, bsp.Context()), op, a.id, payload, dsp.Context())
	if err := c.send(both, a); err != nil {
		return nil, err
	}
	c.tx = txOpen
	c.countSent(opTxBegin, nil)
	c.countSent(op, payload)

	var timeout <-chan time.Time
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		timeout = t.C
	}
	defer c.disarm()
	if _, err := c.await(opTxBegin, a.begin, timeout); err != nil {
		c.tx = txNone
		return nil, fmt.Errorf("server: deferred begin: %w", err)
	}
	return c.await(op, a.id, timeout)
}

// stagedPage is one page a Lookup answer brought, kept until the ReadPage
// that wants it.
type stagedPage struct {
	pid  page.PageID
	data []byte // image ‖ shipped directory, as ReadPage returns it
}

// maxStaged bounds the staging area. The object manager reads the page a
// Lookup brought with its next page read (core's object fault: Lookup, then
// the buffer pool's ReadPage), and a client has one call in flight, so one
// staged page is all a fault can take; on every benchmark workload a bound
// of 32 took no more (DESIGN.md "Client staging"). Past it the oldest goes.
const maxStaged = 1

// splitLookup takes an opLookup answer apart: the 10-byte address, then
// nothing or exactly one page as opReadPage ships it.
func splitLookup(resp []byte) (addr, pg []byte, err error) {
	if len(resp) == 10 {
		return resp, nil, nil
	}
	if len(resp) < 10 || !validPageRead(resp[10:]) {
		return nil, nil, errProtocol
	}
	return resp[:10:10], resp[10:], nil
}

// stageLookup runs on the read loop for every successful opLookup answer:
// it stages the page the answer brought, if any, and passes the address
// alone on to the caller.
func (c *Client) stageLookup(resp []byte) rpcResult {
	addr, pg, err := splitLookup(resp)
	if err != nil {
		return rpcResult{err: err}
	}
	if pg != nil {
		pid := getPAddr(addr).Page
		c.obs.Inc(metrics.CtrLookupPageStaged)
		c.stageMu.Lock()
		c.unstage(pid)
		if len(c.staged) == maxStaged {
			c.unstage(c.staged[0].pid)
		}
		c.staged = append(c.staged, stagedPage{pid: pid, data: pg})
		c.stageMu.Unlock()
	}
	return rpcResult{status: statusOK, payload: addr}
}

// unstage removes pid's staged page, if there is one, and returns it.
// Called with stageMu held.
func (c *Client) unstage(pid page.PageID) []byte {
	for i, sp := range c.staged {
		if sp.pid == pid {
			last := len(c.staged) - 1
			copy(c.staged[i:], c.staged[i+1:])
			c.staged[last] = stagedPage{}
			c.staged = c.staged[:last]
			return sp.data
		}
	}
	return nil
}

// takeStaged hands out pid's staged page, or nil.
func (c *Client) takeStaged(pid page.PageID) []byte {
	c.stageMu.Lock()
	data := c.unstage(pid)
	c.stageMu.Unlock()
	if data != nil {
		c.obs.Inc(metrics.CtrLookupPageTaken)
	}
	return data
}

// dropStagedPages drops the staged copies of the pages named.
func (c *Client) dropStagedPages(pids []page.PageID) {
	c.stageMu.Lock()
	for _, pid := range pids {
		c.unstage(pid)
	}
	c.stageMu.Unlock()
}

// dropStaged empties the staging area.
func (c *Client) dropStaged() {
	c.stageMu.Lock()
	clear(c.staged)
	c.staged = c.staged[:0]
	c.stageMu.Unlock()
}
