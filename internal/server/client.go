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
	// Metrics, when non-nil, records the client's counters: frames and
	// bytes per opcode each way, retries, staged Lookup pages, coherence
	// pushes received and lease expiries.
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
	id      uint64
	status  byte
	payload []byte
	err     error
}

// awaited is the call in flight as the read loop sees it: the ID of its
// request and that request's opcode — the loop acts itself on one
// response, opLookup's page (client_tx.go) — and the ID of the deferred
// begin sent ahead of it, if any. IDs are never 0, so the zero value
// awaits nothing.
type awaited struct {
	begin uint64
	id    uint64
	op    byte
}

// ErrIncompatiblePeer matches (via errors.Is) a dial refused at the hello
// exchange: the peer answered the hello with an error, with an older
// protocol version, or without one of the baseline features.
var ErrIncompatiblePeer = errors.New("server: peer does not speak this protocol")

// Client is a TCP client for TCPServer.
//
// Dial opens the connection with a hello exchange; from then on the client
// has one request in flight (two, for a deferred begin and the data
// request it rides on). A call writes its own frame and waits for the one
// answer it is owed; a reader goroutine hands over the answer that carries
// the awaited request ID, drops any other — the late answer of a call that
// timed out — and applies the server's invalidation pushes in between.
// Goroutines that share a client take turns.
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

	// mu is the call mutex: it is held for the whole of a call, retries
	// included, and guards the request IDs and the transaction state
	// (client_tx.go).
	mu     sync.Mutex
	nextID uint64
	// wmu keeps whole frames whole on the connection: a call's request
	// frames and the read loop's coherence acks.
	wmu sync.Mutex
	// awaitMu guards what the read loop hands over: the awaited request
	// IDs and resp, where their answers go (room for both answers of a
	// deferred begin's call, so the loop never blocks on it).
	awaitMu  sync.Mutex
	awaiting awaited
	resp     chan rpcResult

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

	// Transaction state, under mu, and the pages Lookup responses brought
	// (client_tx.go).
	tx      txPhase
	txSeq   uint64
	readLSN uint64 // of the last snapshot begun on a coherent connection; 0 before the first
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
		resp:    make(chan rpcResult, 2),
		done:    make(chan struct{}),
	}
	if err := c.hello(dt); err != nil {
		conn.Close()
		return nil, err
	}
	c.wg.Add(1)
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
	if err := writeMsg(bufio.NewWriter(c.conn), opHello, req[:]); err != nil {
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
	return err
}

// fail records the first transport error and tears the connection down;
// the reader exits, and the call in flight fails when it sees it go.
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

// readLoop hands each answer to the call awaiting it, applies the
// server's pushes, and on exit closes done, which fails the call in flight.
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
			// Server push, not a response: apply and acknowledge (pushes
			// carry request ID 0).
			c.handleInvalidate(payload[8:])
			continue
		}
		c.deliver(binary.LittleEndian.Uint64(payload), status, payload[8:])
	}
	close(c.done)
	if coherent {
		// A dead connection delivers no more invalidations; the cache
		// above must stop trusting what it holds.
		c.fireLease()
	}
}

// deliver hands an answer to the call in flight if that call awaits its
// ID; any other answer — one a timed-out call left behind — is dropped
// unread.
func (c *Client) deliver(id uint64, status byte, payload []byte) {
	c.awaitMu.Lock()
	defer c.awaitMu.Unlock()
	a := c.awaiting
	op := a.op
	switch {
	case id == 0:
		return
	case id == a.begin:
		op = opTxBegin
		c.awaiting.begin = 0
	case id == a.id:
		c.awaiting.id = 0
	default:
		return
	}
	// Each awaited ID is handed over once, so resp has room for whatever
	// the server sends.
	res := rpcResult{id: id, status: status, payload: payload}
	if status == statusOK {
		if rpc := rpcOpOf(op); rpc >= 0 {
			c.obs.RPCFrame(rpc, false, 4+1+8+len(payload))
		}
		if op == opLookup {
			// Stage the page the answer brought here, in frame order:
			// an invalidation behind it on the wire must find it staged.
			res = c.stageLookup(res.payload)
			res.id = id
		}
	}
	c.resp <- res
}

// call issues one RPC, retrying transient failures (a statusTransient
// response, or a send dropped by the rpc.send fault site) with exponential
// backoff up to the dial option's RetryAttempts. Goroutines sharing the
// client take turns here.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.callLocked(op, payload)
}

// callLocked is call with the call mutex held.
func (c *Client) callLocked(op byte, payload []byte) ([]byte, error) {
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

// callOnce issues one RPC attempt and waits for its answer. A data request
// that finds a begin deferred takes it along (client_tx.go).
func (c *Client) callOnce(op byte, payload []byte) ([]byte, error) {
	if !isBoundary(op) && c.tx == txDeferred {
		return c.callWithBegin(op, payload)
	}
	if err := c.ready(); err != nil {
		return nil, err
	}
	sp := c.startSpan(op, payload)
	defer finishSpan(sp)
	c.nextID++
	a := awaited{id: c.nextID, op: op}
	if err := c.send(encodeRequest(op, a.id, payload, sp.Context()), a); err != nil {
		return nil, err
	}
	c.countSent(op, payload)
	var timeout <-chan time.Time
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		timeout = t.C
	}
	resp, err := c.await(op, a.id, timeout)
	c.disarm()
	return resp, err
}

// ready is the gate every request attempt passes before it ships. The
// rpc.send fault site drops (or delays) it here; a drop is a transient
// failure the retry loop in call may redo. A dead connection fails it.
func (c *Client) ready() error {
	if err := faultpoint.Check(faultpoint.RPCSend); err != nil {
		return fmt.Errorf("%w: request dropped: %w", ErrTransient, err)
	}
	select {
	case <-c.done:
		return c.errOr(ErrClientClosed)
	default:
		return nil
	}
}

// startSpan opens a request attempt's client-side span under the caller's
// ambient context; its own context goes onto the wire so server-side
// spans nest under it.
func (c *Client) startSpan(op byte, payload []byte) trace.Span {
	sp := c.spans.StartChild(spanName(&clientSpanNames, op), c.traceCtx())
	sp.SetArgs(uint64(len(payload)), 0)
	return sp
}

func finishSpan(sp trace.Span) {
	if sp.Sampled() {
		sp.Finish()
	}
}

// countSent books one request frame put on the wire.
func (c *Client) countSent(op byte, payload []byte) {
	if rpc := rpcOpOf(op); rpc >= 0 {
		c.obs.RPCFrame(rpc, true, requestLen(payload))
	}
}

// send arms the read loop for a's answers, then writes the encoded request
// frames and releases the buffer. A failed write fails the connection.
func (c *Client) send(frame *[]byte, a awaited) error {
	c.awaitMu.Lock()
	c.awaiting = a
	c.awaitMu.Unlock()
	if err := c.write(frame); err != nil {
		c.disarm()
		return err
	}
	return nil
}

// write puts one encoded buffer on the wire under the write mutex and
// releases it.
func (c *Client) write(frame *[]byte) error {
	c.wmu.Lock()
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
	_, err := c.conn.Write(*frame)
	c.wmu.Unlock()
	putBuf(frame)
	if err != nil {
		c.fail(err)
		return c.errOr(err)
	}
	return nil
}

// disarm ends the call in flight for the read loop: answers still owed to
// it are dropped on arrival, and one already handed over but not taken is
// dropped now.
func (c *Client) disarm() {
	c.awaitMu.Lock()
	c.awaiting = awaited{}
	for len(c.resp) > 0 {
		<-c.resp
	}
	c.awaitMu.Unlock()
}

// await waits for the answer to request id of opcode op. The read loop
// hands answers over in wire order, and the server answers in the order it
// was asked.
func (c *Client) await(op byte, id uint64, timeout <-chan time.Time) ([]byte, error) {
	select {
	case res := <-c.resp:
		return c.finish(id, res)
	case <-timeout:
		return nil, &rpcTimeoutError{op: op, timeout: c.timeout}
	case <-c.done:
		// The reader may have handed the answer over just before exiting.
		select {
		case res := <-c.resp:
			return c.finish(id, res)
		default:
		}
		return nil, c.errOr(ErrClientClosed)
	}
}

// finish turns the answer to request id into the call's result.
func (c *Client) finish(id uint64, res rpcResult) ([]byte, error) {
	if res.id != id {
		return nil, errProtocol
	}
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
