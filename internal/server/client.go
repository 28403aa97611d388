package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
	"gom/internal/trace"
)

// ErrClientClosed is returned by RPCs issued on (or in flight during) a
// closed client.
var ErrClientClosed = errors.New("server: client closed")

// DialOptions tunes the TCP client.
type DialOptions struct {
	// Timeout bounds every RPC: connection establishment, the write of
	// the request, and the wait for its response. Zero means no bound.
	// Timeouts surface as errors matching ErrRPCTimeout (and implementing
	// net.Error with Timeout() == true).
	Timeout time.Duration
	// DialTimeout bounds connection establishment — the TCP connect and
	// the hello exchange — separately; when zero, Timeout applies.
	DialTimeout time.Duration
	// Metrics, when non-nil, records client-side gauges (in-flight RPCs).
	Metrics *metrics.Registry
	// RetryAttempts bounds how often an RPC that fails transiently — a
	// statusTransient response from the server, or a send dropped by the
	// rpc.send fault site — is retried before the error surfaces. Zero
	// disables retries (the pre-retry behavior).
	RetryAttempts int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt. Zero means 1ms.
	RetryBackoff time.Duration
	// LeaseTimeout arms the client-side cache lease on a
	// coherence-negotiated connection: when no frame of any kind has
	// arrived for this long — invalidation delivery can no longer be
	// relied on — the OnLeaseExpired handler fires so the cache above
	// stops serving possibly-stale pages. Must be at least the server's
	// ack timeout (the server waits that long for invalidation acks
	// before giving a commit up on a client). Zero disables the
	// watchdog; connection failure still fires the handler.
	LeaseTimeout time.Duration
}

// rpcResult carries a matched response to its waiting caller.
type rpcResult struct {
	status  byte
	payload []byte
	err     error
}

// pendingCall is what the read loop knows of a request in flight: where its
// response goes and, for the one response the loop acts on itself
// (opLookup's page, client_tx.go), the opcode.
type pendingCall struct {
	ch chan rpcResult
	op byte
}

// ErrIncompatiblePeer matches (via errors.Is) a dial refused at the hello
// exchange: the peer answered the hello with an error, with an older
// protocol version, or without one of the baseline features.
var ErrIncompatiblePeer = errors.New("server: peer does not speak the pipelined protocol")

// Client is a TCP client for TCPServer.
//
// Dial opens the connection with a hello exchange; from then on requests
// carry IDs, a writer goroutine streams frames without waiting for
// responses, and a reader goroutine matches responses (possibly out of
// order) back to callers. Any number of goroutines may issue RPCs
// concurrently over the one connection; their requests overlap in the
// network and on the server instead of queueing behind each other.
//
// The client talks only when there is something to say (client_tx.go): a
// transaction's begin travels with its first data request or not at all,
// and the page an opLookup response brings is kept for the ReadPage that
// follows.
type Client struct {
	conn    net.Conn
	timeout time.Duration
	obs     *metrics.Registry

	retries int
	backoff time.Duration

	// What the server's hello said of itself: coherent — it pushes
	// invalidation callbacks (client_coherence.go); transactional — it was
	// started with ServeTx (client_tx.go).
	coherent      bool
	transactional bool

	// spans/spanCtx: client-side RPC tracing (see SetTrace in trace.go).
	spans   *trace.Tracer
	spanCtx func() trace.Context

	r *bufio.Reader // owned by the read loop once the hello is done
	w *bufio.Writer // owned by the write loop once the hello is done

	nextID   atomic.Uint64
	pendMu   sync.Mutex
	pending  map[uint64]pendingCall
	sendCh   chan *[]byte
	done     chan struct{} // closed when the reader exits
	failOnce sync.Once
	failErr  atomic.Pointer[error]
	wg       sync.WaitGroup
	closed   atomic.Bool

	// Coherence state (client_coherence.go): the invalidation and
	// lease-expiry handlers installed by the cache above, the last time
	// any frame arrived (the lease clock), and whether the current
	// silence episode already fired the lease.
	onInval      atomic.Pointer[func(epoch uint64, pids []page.PageID)]
	onLease      atomic.Pointer[func()]
	lastRecv     atomic.Int64
	leaseTimeout time.Duration
	leaseFired   atomic.Bool

	// Transaction state and the pages Lookup responses brought
	// (client_tx.go).
	txMu    sync.Mutex
	tx      txPhase
	txSeq   uint64
	readLSN atomic.Uint64 // of the last snapshot begun on a coherent connection; 0 before the first
	stageMu sync.Mutex
	staged  []stagedPage
}

// Dial connects to a page server with default options: no timeouts, no
// retries.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a page server.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	dt := opts.DialTimeout
	if dt == 0 {
		dt = opts.Timeout
	}
	var (
		conn net.Conn
		err  error
	)
	if dt > 0 {
		conn, err = net.DialTimeout("tcp", addr, dt)
	} else {
		conn, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	backoff := opts.RetryBackoff
	if backoff == 0 {
		backoff = time.Millisecond
	}
	c := &Client{
		conn:    conn,
		timeout: opts.Timeout,
		obs:     opts.Metrics,
		retries: opts.RetryAttempts,
		backoff: backoff,
		r:       bufio.NewReaderSize(conn, page.Size+1024),
		w:       bufio.NewWriterSize(conn, page.Size+1024),
	}
	if err := c.hello(dt); err != nil {
		conn.Close()
		return nil, err
	}
	c.pending = make(map[uint64]pendingCall)
	c.sendCh = make(chan *[]byte, pipelineWorkers)
	c.done = make(chan struct{})
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	if c.HasCoherence() {
		c.leaseTimeout = opts.LeaseTimeout
		c.lastRecv.Store(time.Now().UnixNano())
		if c.leaseTimeout > 0 {
			c.wg.Add(1)
			go c.leaseLoop()
		}
	}
	return c, nil
}

// clientFeatures is what this client offers in its hello.
const clientFeatures = baselineFeatures | featureCoherence | featureTx

// hello opens the connection: one exchange in the bare envelope (no
// request ID yet), bounded by the dial timeout. A peer that refuses it,
// answers with an older version or lacks a baseline feature fails the
// dial with ErrIncompatiblePeer; transport failures propagate as they
// are.
func (c *Client) hello(timeout time.Duration) error {
	if timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	var req [8]byte
	binary.LittleEndian.PutUint32(req[:], protocolV2)
	binary.LittleEndian.PutUint32(req[4:], clientFeatures)
	if err := writeMsg(c.w, opHello, req[:]); err != nil {
		return mapNetErr(opHello, timeout, err)
	}
	status, resp, err := readMsg(c.r)
	if err != nil {
		return mapNetErr(opHello, timeout, err)
	}
	if status != statusOK {
		return fmt.Errorf("%w: hello refused: %s", ErrIncompatiblePeer, resp)
	}
	if len(resp) != 8 {
		return fmt.Errorf("%w: hello response of %d bytes", ErrIncompatiblePeer, len(resp))
	}
	ver, features := binary.LittleEndian.Uint32(resp), binary.LittleEndian.Uint32(resp[4:])
	if ver < protocolV2 || features&baselineFeatures != baselineFeatures {
		return fmt.Errorf("%w: peer version %d, features %#x (baseline %#x)", ErrIncompatiblePeer, ver, features, baselineFeatures)
	}
	c.coherent = features&featureCoherence != 0
	c.transactional = features&featureTx != 0
	return nil
}

// Close tears the connection down. In-flight RPCs fail with
// ErrClientClosed (or the transport error that preceded it).
func (c *Client) Close() error {
	c.closed.Store(true)
	err := c.conn.Close()
	c.wg.Wait()
	c.dropStaged()
	// Both loops are done; release any frame a caller managed to enqueue
	// after the write loop's own shutdown drain.
	for {
		select {
		case frame := <-c.sendCh:
			putBuf(frame)
		default:
			return err
		}
	}
}

// fail records the first transport error and tears the connection down so
// both loops exit; pending callers are failed by the reader on its way
// out.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.failErr.Store(&err)
		c.conn.Close()
	})
}

// errOr returns the recorded transport error, or fallback.
func (c *Client) errOr(fallback error) error {
	if p := c.failErr.Load(); p != nil {
		if c.closed.Load() {
			return ErrClientClosed
		}
		return *p
	}
	if c.closed.Load() {
		return ErrClientClosed
	}
	return fallback
}

// writeLoop streams request frames, draining whatever callers have queued
// before each flush so concurrent requests coalesce into fewer packets.
func (c *Client) writeLoop() {
	// On exit — transport error or shutdown — release whatever frames are
	// still queued: nothing will ever write them, and pooled buffers must
	// not be stranded in the channel.
	defer func() {
		for {
			select {
			case frame := <-c.sendCh:
				putBuf(frame)
			default:
				c.wg.Done()
				return
			}
		}
	}()
	for {
		select {
		case frame := <-c.sendCh:
			if c.timeout > 0 {
				c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
			}
			if err := c.writeBatch(frame); err != nil {
				c.fail(err)
				return
			}
		case <-c.done:
			return
		}
	}
}

// writeBatch writes one frame plus everything else already queued, then
// flushes once.
func (c *Client) writeBatch(frame *[]byte) error {
	if _, err := c.w.Write(*frame); err != nil {
		putBuf(frame)
		return err
	}
	putBuf(frame)
	for {
		select {
		case next := <-c.sendCh:
			if _, err := c.w.Write(*next); err != nil {
				putBuf(next)
				return err
			}
			putBuf(next)
		default:
			return c.w.Flush()
		}
	}
}

// readLoop matches responses to pending callers by request ID; on exit it
// fails everything still pending.
func (c *Client) readLoop() {
	defer c.wg.Done()
	coherent := c.HasCoherence()
	for {
		status, payload, err := readMsg(c.r)
		if err != nil {
			c.fail(err)
			break
		}
		if coherent {
			// Any frame proves the server can still reach us: feed the
			// lease clock and re-arm the watchdog.
			c.lastRecv.Store(time.Now().UnixNano())
			c.leaseFired.Store(false)
		}
		if len(payload) < 8 {
			c.fail(errProtocol)
			break
		}
		if status == opInvalidate {
			// Server push, not a response: apply and acknowledge without
			// consulting the pending map (pushes carry request ID 0).
			c.handleInvalidate(payload[8:])
			continue
		}
		id := binary.LittleEndian.Uint64(payload)
		c.pendMu.Lock()
		p := c.pending[id]
		delete(c.pending, id)
		c.pendMu.Unlock()
		if p.ch == nil {
			// An unknown ID is a caller that timed out and went away; the
			// response is simply dropped.
			continue
		}
		res := rpcResult{status: status, payload: payload[8:]}
		if status == statusOK {
			if rpc := rpcOpOf(p.op); rpc >= 0 {
				c.obs.RPCFrame(rpc, false, 4+1+len(payload))
			}
			if p.op == opLookup {
				// Stage the page the answer brought here, in frame order:
				// an invalidation behind it on the wire must find it staged.
				res = c.stageLookup(res.payload)
			}
		}
		p.ch <- res
	}
	close(c.done)
	err := c.errOr(ErrClientClosed)
	c.pendMu.Lock()
	for id, p := range c.pending {
		delete(c.pending, id)
		p.ch <- rpcResult{err: err}
	}
	c.pendMu.Unlock()
	if coherent {
		// A dead connection delivers no more invalidations; the cache
		// above must stop trusting what it holds.
		c.fireLease()
	}
}

// call issues one RPC, retrying transient failures (a statusTransient
// response, or a send dropped by the rpc.send fault site) with exponential
// backoff up to the dial option's RetryAttempts.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	resp, err := c.callOnce(op, payload)
	if err == nil || c.retries == 0 {
		return resp, err
	}
	backoff := c.backoff
	for attempt := 0; attempt < c.retries && errors.Is(err, ErrTransient); attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		c.obs.Inc(metrics.CtrRPCRetry)
		resp, err = c.callOnce(op, payload)
	}
	return resp, err
}

// outCall is one request attempt on its way: registered with the read
// loop, its client-side span open.
type outCall struct {
	op byte
	id uint64
	ch chan rpcResult
	sp trace.Span
}

// prepare starts one request attempt. The rpc.send fault site drops (or
// delays) the request before it ships; a drop is a transient failure the
// retry loop in call may redo. The attempt's client-side span nests under
// the caller's ambient context; its own context goes onto the wire so
// server-side spans nest under it. Every prepared call ends in settle.
func (c *Client) prepare(op byte, payload []byte) (outCall, error) {
	if err := faultpoint.Check(faultpoint.RPCSend); err != nil {
		return outCall{}, fmt.Errorf("%w: request dropped: %w", ErrTransient, err)
	}
	select {
	case <-c.done:
		return outCall{}, c.errOr(ErrClientClosed)
	default:
	}
	oc := outCall{op: op, id: c.nextID.Add(1), ch: make(chan rpcResult, 1)}
	oc.sp = c.spans.StartChild(spanName(&clientSpanNames, op), c.traceCtx())
	oc.sp.SetArgs(uint64(len(payload)), 0)
	c.pendMu.Lock()
	c.pending[oc.id] = pendingCall{ch: oc.ch, op: op}
	c.pendMu.Unlock()
	c.obs.GaugeAdd(metrics.GaugeInFlightRPC, 1)
	return oc, nil
}

// settle ends a prepared call.
func (c *Client) settle(oc outCall) {
	c.obs.GaugeAdd(metrics.GaugeInFlightRPC, -1)
	if oc.sp.Sampled() {
		oc.sp.Finish()
	}
}

// abandon ends a prepared call whose response was not (or will not be)
// delivered: the read loop drops a response it finds no caller for.
func (c *Client) abandon(oc outCall) {
	c.pendMu.Lock()
	delete(c.pending, oc.id)
	c.pendMu.Unlock()
	c.settle(oc)
}

// countSent books one request frame handed to the write loop.
func (c *Client) countSent(op byte, payload []byte) {
	if rpc := rpcOpOf(op); rpc >= 0 {
		c.obs.RPCFrame(rpc, true, requestLen(payload))
	}
}

// enqueue hands an encoded buffer to the write loop, which releases it.
func (c *Client) enqueue(frame *[]byte) error {
	select {
	case c.sendCh <- frame:
		return nil
	case <-c.done:
		putBuf(frame)
		return c.errOr(ErrClientClosed)
	}
}

// deadline is when a response awaited from now on counts as timed out;
// the zero time without a Timeout.
func (c *Client) deadline() time.Time {
	if c.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.timeout)
}

// await waits for a prepared call's response and ends the call.
func (c *Client) await(oc outCall, deadline time.Time) ([]byte, error) {
	var timeoutCh <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case res := <-oc.ch:
		c.settle(oc)
		return c.finish(res)
	case <-timeoutCh:
		c.abandon(oc)
		return nil, &rpcTimeoutError{op: oc.op, timeout: c.timeout}
	case <-c.done:
		// The reader may have delivered the result just before exiting.
		select {
		case res := <-oc.ch:
			c.settle(oc)
			return c.finish(res)
		default:
		}
		c.abandon(oc)
		return nil, c.errOr(ErrClientClosed)
	}
}

// callOnce issues one RPC attempt and waits for its response. A data
// request that finds a begin deferred takes it along (client_tx.go).
func (c *Client) callOnce(op byte, payload []byte) ([]byte, error) {
	if !isBoundary(op) {
		c.txMu.Lock()
		if c.tx == txDeferred {
			return c.callWithBegin(op, payload) // unlocks txMu
		}
		c.txMu.Unlock()
	}
	oc, err := c.prepare(op, payload)
	if err != nil {
		return nil, err
	}
	if err := c.enqueue(encodeRequest(op, oc.id, payload, oc.sp.Context())); err != nil {
		c.abandon(oc)
		return nil, err
	}
	c.countSent(op, payload)
	return c.await(oc, c.deadline())
}

func (c *Client) finish(res rpcResult) ([]byte, error) {
	if res.err != nil {
		return nil, res.err
	}
	if res.status == statusTransient {
		return nil, fmt.Errorf("%w: %s", ErrTransient, res.payload)
	}
	if res.status != statusOK {
		return nil, errors.New(string(res.payload))
	}
	return res.payload, nil
}

// mapNetErr wraps connection-deadline expiry in the client's canonical
// timeout error so callers match it with errors.Is(err, ErrRPCTimeout).
func mapNetErr(op byte, timeout time.Duration, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &rpcTimeoutError{op: op, timeout: timeout}
	}
	return err
}

// Lookup implements Server. The answer may bring the page the address is
// on (stageLookup); a caller that wants addresses only resolves through
// LookupBatch.
func (c *Client) Lookup(id oid.OID) (storage.PAddr, error) {
	req := make([]byte, 8)
	putOID(req, id)
	resp, err := c.call(opLookup, req)
	if err != nil {
		return storage.PAddr{}, err
	}
	if len(resp) != 10 {
		return storage.PAddr{}, errProtocol
	}
	return getPAddr(resp), nil
}

// ReadPage implements Server. The result is the page image followed by
// the page's directory (page.SplitImage takes them apart; a snapshot read
// may withhold it): it travels inside the bytes, not through a side channel,
// so it survives every wrapper around a Server that forwards ReadPage.
// The page a Lookup answer brought is taken from where the read loop
// staged it, without a round trip.
func (c *Client) ReadPage(pid page.PageID) ([]byte, error) {
	if staged := c.takeStaged(pid); staged != nil {
		return staged, nil
	}
	req := make([]byte, 8)
	binary.LittleEndian.PutUint64(req, uint64(pid))
	resp, err := c.call(opReadPage, req)
	if err != nil {
		return nil, err
	}
	if !validPageRead(resp) {
		return nil, errProtocol
	}
	return resp, nil
}

// validPageRead checks one page as read off the wire: an image and a
// well-formed (possibly empty) directory behind it.
func validPageRead(b []byte) bool {
	_, _, err := page.SplitImage(b)
	return err == nil
}

// WritePage implements Server.
func (c *Client) WritePage(pid page.PageID, img []byte) error {
	c.dropStaged() // a staged copy must not outlive this client's own write
	req := make([]byte, 8+len(img))
	binary.LittleEndian.PutUint64(req, uint64(pid))
	copy(req[8:], img)
	_, err := c.call(opWritePage, req)
	return err
}

// Allocate implements Server.
func (c *Client) Allocate(seg uint16, rec []byte) (oid.OID, storage.PAddr, error) {
	c.dropStaged()
	req := make([]byte, 2+len(rec))
	binary.LittleEndian.PutUint16(req, seg)
	copy(req[2:], rec)
	resp, err := c.call(opAllocate, req)
	if err != nil {
		return 0, storage.PAddr{}, err
	}
	if len(resp) != 18 {
		return 0, storage.PAddr{}, errProtocol
	}
	return getOID(resp), getPAddr(resp[8:]), nil
}

// AllocateNear implements Server.
func (c *Client) AllocateNear(seg uint16, neighbor oid.OID, rec []byte) (oid.OID, storage.PAddr, error) {
	c.dropStaged()
	req := make([]byte, 10+len(rec))
	binary.LittleEndian.PutUint16(req, seg)
	putOID(req[2:], neighbor)
	copy(req[10:], rec)
	resp, err := c.call(opAllocateNear, req)
	if err != nil {
		return 0, storage.PAddr{}, err
	}
	if len(resp) != 18 {
		return 0, storage.PAddr{}, errProtocol
	}
	return getOID(resp), getPAddr(resp[8:]), nil
}

// UpdateObject implements Server.
func (c *Client) UpdateObject(id oid.OID, rec []byte) (storage.PAddr, error) {
	c.dropStaged()
	req := make([]byte, 8+len(rec))
	putOID(req, id)
	copy(req[8:], rec)
	resp, err := c.call(opUpdateObject, req)
	if err != nil {
		return storage.PAddr{}, err
	}
	if len(resp) != 10 {
		return storage.PAddr{}, errProtocol
	}
	return getPAddr(resp), nil
}

// NumPages implements Server.
func (c *Client) NumPages(seg uint16) (int, error) {
	req := make([]byte, 2)
	binary.LittleEndian.PutUint16(req, seg)
	resp, err := c.call(opNumPages, req)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, errProtocol
	}
	return int(binary.LittleEndian.Uint64(resp)), nil
}

// LookupBatch implements BatchLookuper. Unknown OIDs clear ok[i] rather
// than failing the batch.
func (c *Client) LookupBatch(ids []oid.OID) ([]storage.PAddr, []bool, error) {
	addrs := make([]storage.PAddr, len(ids))
	ok := make([]bool, len(ids))
	if len(ids) == 0 {
		return addrs, ok, nil
	}
	for off := 0; off < len(ids); off += maxBatchLookup {
		end := off + maxBatchLookup
		if end > len(ids) {
			end = len(ids)
		}
		chunk := ids[off:end]
		req := make([]byte, 4+len(chunk)*8)
		binary.LittleEndian.PutUint32(req, uint32(len(chunk)))
		for i, id := range chunk {
			putOID(req[4+i*8:], id)
		}
		resp, err := c.call(opLookupBatch, req)
		if err != nil {
			return nil, nil, err
		}
		if len(resp) != len(chunk)*11 {
			return nil, nil, errProtocol
		}
		for i := range chunk {
			e := resp[i*11:]
			if e[0] == 1 {
				addrs[off+i] = getPAddr(e[1:])
				ok[off+i] = true
			}
		}
	}
	return addrs, ok, nil
}

// ReadPages implements PageRunReader. The run may be truncated server-side
// at the end of the segment.
func (c *Client) ReadPages(pid page.PageID, n int) ([][]byte, error) {
	if n < 1 {
		return nil, errProtocol
	}
	if n > maxReadRun {
		n = maxReadRun
	}
	req := make([]byte, 12)
	binary.LittleEndian.PutUint64(req, uint64(pid))
	binary.LittleEndian.PutUint32(req[8:], uint32(n))
	resp, err := c.call(opReadPages, req)
	if err != nil {
		return nil, err
	}
	if len(resp) < 4 {
		return nil, errProtocol
	}
	m := int(binary.LittleEndian.Uint32(resp))
	if m < 1 || m > maxReadRun {
		return nil, errProtocol
	}
	// Each page is its image followed by its directory, whose byte length
	// the header lists per page.
	if len(resp) < 4+2*m {
		return nil, errProtocol
	}
	dirLens := resp[4 : 4+2*m]
	off := 4 + 2*m
	imgs := make([][]byte, m)
	for i := range imgs {
		end := off + page.Size + int(binary.LittleEndian.Uint16(dirLens[2*i:]))
		if end > len(resp) || !validPageRead(resp[off:end]) {
			return nil, errProtocol
		}
		imgs[i] = resp[off:end:end]
		off = end
	}
	if off != len(resp) {
		return nil, errProtocol
	}
	return imgs, nil
}

var (
	_ Server        = (*Client)(nil)
	_ BatchLookuper = (*Client)(nil)
	_ PageRunReader = (*Client)(nil)
)
