package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/storage"
	"gom/internal/trace"
)

// Wire protocol: every message is
//
//	uint32 length (of everything after this field)
//	uint8  opcode (request) / status (response)
//	payload
//
// Integers are little endian. A status of 0 is success; 1 carries an error
// string as payload.
//
// A connection opens with one hello exchange in exactly this envelope: the
// client sends opHello with its protocol version and the feature bits it
// offers, the server answers with its version and the bits agreed. From
// then on the connection is pipelined: every request and response payload
// begins with a uint64 request ID, every request ends in a trace-context
// suffix, any number of requests may be in flight, the server processes
// them concurrently per connection, and responses are matched to callers
// by ID (they may arrive out of order).
//
// There is one protocol. A first frame that is not a hello of version 2
// or later offering every baseline feature is answered with one statusErr
// frame and the connection is closed; so is a second hello.
// testdata/wire_v2.golden pins the bytes.
const (
	opLookup = iota + 1
	opReadPage
	opWritePage
	opAllocate
	opAllocateNear
	opUpdateObject
	opNumPages
	// Transactional extension: a connection runs at most one transaction
	// at a time; between opTxBegin and opTxCommit/opTxAbort, every data
	// operation on the connection is routed through the transaction's
	// session (strict 2PL + undo, see txn.go).
	opTxBegin
	opTxCommit
	opTxAbort
	// The hello exchange that opens every connection, and the batch
	// opcodes.
	opHello
	opLookupBatch
	opReadPages
	// Begins a read-only snapshot transaction whose reads are lock-free at
	// a frozen read-LSN.
	opTxBeginSnapshot
	// Coherence extension (featureCoherence). opInvalidate is a
	// server→client push (request ID 0, which ordinary request/response
	// traffic never uses) telling the client to drop its cached copies of
	// the listed pages; opCoherenceAck is the client's fire-and-forget
	// acknowledgement (no response frame) carrying the highest applied
	// invalidation epoch.
	opInvalidate
	opCoherenceAck
	// numOpcodes is one past the highest opcode. Every opcode below it
	// must have a latency histogram (rpcOpOf), a name in both span
	// tables, and per-opcode frame/byte counters; the completeness test
	// (TestOpcodeMetricsComplete) fails when a new opcode lacks any.
	numOpcodes
)

const (
	statusOK  = 0
	statusErr = 1
	// statusTransient marks a failure the client may safely retry (the
	// operation did not happen).
	statusTransient = 2
)

// ErrTransient marks (via errors.Is) server-side failures that are safe to
// retry: the operation was rejected before taking effect. The TCP server
// answers them with statusTransient, and a client dialed with
// RetryAttempts > 0 retries them with backoff.
var ErrTransient = errors.New("server: transient failure (safe to retry)")

// statusOf classifies an error for the wire.
func statusOf(err error) byte {
	if errors.Is(err, ErrTransient) {
		return statusTransient
	}
	return statusErr
}

// protocolV2 is the protocol version carried in opHello.
const protocolV2 = 2

// Feature bits of the hello exchange. The numbers are frozen (they are on
// the wire); every bit but featureCoherence and featureTx is part of the
// baseline both sides require. Those two are not options either: each says
// something the server can observe about itself — whether EnableCoherence
// ran, whether it was started with ServeTx.
const (
	// featureBatch: the batch opcodes opLookupBatch and opReadPages.
	featureBatch = 1 << 0
	// featureTrace: every request frame ends in a fixed trace.WireLen-byte
	// suffix encoding the client's span context (zeros when the request is
	// not part of a sampled trace). The suffix rides after the opcode
	// payload, so per-opcode encoders and decoders are untouched; the
	// server strips it before dispatch. Responses are never suffixed — the
	// client already knows the context it sent.
	featureTrace = 1 << 1
	// featureSnapshot: opTxBeginSnapshot opens a read-only snapshot
	// transaction whose reads are served lock-free at a frozen read-LSN
	// (MVCC page versions; see txn.go and storage/versions.go).
	featureSnapshot = 1 << 2
	// featureCoherence: opInvalidate pushes and opCoherenceAck
	// acknowledgements (coherence.go). Offered only by a server on which
	// EnableCoherence ran.
	featureCoherence = 1 << 3
	// featurePageDir: page directories (DESIGN.md "Page directories").
	// Every opReadPage / opReadPages response carries, behind each page
	// image, the extent directory published with that image — which OIDs
	// live in which slots — so the client resolves the addresses of objects
	// on pages it holds without an opLookup. An opReadPage payload is the
	// image followed by the directory (whatever the frame holds past
	// page.Size, a multiple of page.ExtentSize, at most
	// page.MaxShippedExtents extents); an opReadPages payload is the page
	// count, one uint16 directory byte length per page, then each image
	// followed by its directory.
	featurePageDir = 1 << 4
	// featureLookupPage: an opLookup response is the 10-byte address
	// followed by nothing or by exactly what opReadPage of that address's
	// page answers (image, then shipped directory) — DESIGN.md "Page
	// directories", the one-call fault. A peer without the bit would read
	// the longer response as a protocol error, so the bit joined the
	// baseline when the format changed: an older peer is refused at the
	// hello, in both directions.
	featureLookupPage = 1 << 5
	// featureTx: the server was started with ServeTx and answers the
	// transaction-boundary opcodes. The client needs to know at the hello
	// because its BeginTx sends nothing (client_tx.go), and
	// against a plain Serve it must still fail at BeginTx.
	featureTx = 1 << 6
	// featureBeginValidates: on a connection that also negotiated
	// featureCoherence, an opTxBeginSnapshot request carries the client's
	// previous read-LSN and the answer names, behind {tx, readLSN}, the
	// pages changed since (changelog.go). The request and answer formats
	// changed with it, so it joined the baseline like featureLookupPage did.
	featureBeginValidates = 1 << 7

	baselineFeatures = featureBatch | featureTrace | featureSnapshot | featurePageDir | featureLookupPage | featureBeginValidates
)

const (
	// maxReadRun bounds the pages shipped by one opReadPages response.
	maxReadRun = 16
	// maxBatchLookup bounds the OIDs resolved by one opLookupBatch.
	maxBatchLookup = 1024
	// pipelineWorkers bounds the concurrently processed requests of one
	// pipelined connection.
	pipelineWorkers = 32
)

// maxMessage bounds a message (a full read-run of pages, each with its
// shipped directory, plus headers is the largest legitimate payload).
const maxMessage = maxReadRun*page.MaxShippedLen + 1024

var errProtocol = errors.New("server: protocol error")

// ErrRPCTimeout matches (via errors.Is) every timeout the client
// surfaces, whether from a connection deadline or from waiting on a
// pipelined response. The concrete errors also implement net.Error with
// Timeout() == true, so existing net-style checks see them too.
var ErrRPCTimeout = errors.New("server: rpc timeout")

// rpcTimeoutError is an RPC that exceeded the client's Timeout.
type rpcTimeoutError struct {
	op      byte
	timeout time.Duration
}

func (e *rpcTimeoutError) Error() string {
	return fmt.Sprintf("server: rpc timeout: opcode %d exceeded %v", e.op, e.timeout)
}
func (e *rpcTimeoutError) Timeout() bool   { return true }
func (e *rpcTimeoutError) Temporary() bool { return true }
func (e *rpcTimeoutError) Is(target error) bool {
	return target == ErrRPCTimeout
}

var _ net.Error = (*rpcTimeoutError)(nil)

// msgBufPool recycles message bodies and encoded frames in the server and
// client hot loops, so steady-state serving does not allocate per frame.
var msgBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Pool leak accounting (debug mode): when enabled, every getBuf/getFrame
// increments and every putBuf/putFrame decrements an outstanding counter,
// so tests can assert that traffic — including error paths — returns every
// pooled object. Off by default; the counters cost nothing when disabled.
var (
	poolDebug         atomic.Bool
	bufsOutstanding   atomic.Int64
	framesOutstanding atomic.Int64
)

// SetPoolDebug switches pool leak accounting on or off, returning the
// previous setting. Enabling it resets the outstanding balances to zero,
// so call it before generating the traffic under test.
func SetPoolDebug(on bool) bool {
	prev := poolDebug.Swap(on)
	if on && !prev {
		bufsOutstanding.Store(0)
		framesOutstanding.Store(0)
	}
	return prev
}

// PoolOutstanding reports the message-buffer and response-frame balances
// accumulated since pool debugging was enabled. Both are zero when every
// pooled object taken has been returned.
func PoolOutstanding() (bufs, frames int64) {
	return bufsOutstanding.Load(), framesOutstanding.Load()
}

// getBuf returns a pooled buffer of length n.
func getBuf(n int) *[]byte {
	if poolDebug.Load() {
		bufsOutstanding.Add(1)
	}
	bp := msgBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	} else {
		*bp = (*bp)[:n]
	}
	return bp
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	if poolDebug.Load() {
		bufsOutstanding.Add(-1)
	}
	if cap(*bp) <= maxMessage {
		msgBufPool.Put(bp)
	}
}

// respFrame is a pipelined response assembled for scatter-gather writing:
// a pooled header buffer (length word, status, request ID, and any small
// inline payload) followed by zero or more page images borrowed straight
// from the copy-on-write page store. The writer hands the pieces to
// net.Buffers, so a page read is shipped without ever being copied into a
// contiguous response buffer.
type respFrame struct {
	head   *[]byte  // pooled: length + status + id + inline payload
	inline []byte   // small payload encoded into head (may alias scratch)
	pages  [][]byte // borrowed page images and directories, shipped after head
	// scratch gives fixed-size payloads (counts, LSNs, the directory
	// lengths of a read run) inline space so building them does not
	// allocate.
	scratch [4 + 2*maxReadRun]byte
}

var respFramePool = sync.Pool{
	New: func() any { return &respFrame{pages: make([][]byte, 0, 2*maxReadRun)} },
}

// getFrame returns an empty pooled response frame.
func getFrame() *respFrame {
	if poolDebug.Load() {
		framesOutstanding.Add(1)
	}
	return respFramePool.Get().(*respFrame)
}

// putFrame releases a frame: the header returns to the buffer pool and the
// borrowed page references are dropped so the pool never pins page images.
func putFrame(f *respFrame) {
	if f == nil {
		return
	}
	if poolDebug.Load() {
		framesOutstanding.Add(-1)
	}
	putBuf(f.head)
	f.head = nil
	f.inline = nil
	for i := range f.pages {
		f.pages[i] = nil
	}
	f.pages = f.pages[:0]
	respFramePool.Put(f)
}

// encode finalizes the frame: the pooled header is built with the total
// payload length (inline plus all attached pages), the status code, and
// the request ID. The inline payload is copied into the header so the
// frame owns every byte it ships except the borrowed pages.
func (f *respFrame) encode(code byte, id uint64) {
	pageBytes := 0
	for _, p := range f.pages {
		pageBytes += len(p)
	}
	f.head = getBuf(4 + 1 + 8 + len(f.inline))
	b := *f.head
	binary.LittleEndian.PutUint32(b, uint32(1+8+len(f.inline)+pageBytes))
	b[4] = code
	binary.LittleEndian.PutUint64(b[5:], id)
	copy(b[13:], f.inline)
}

// wireLen is the frame's total on-wire size. Valid after encode.
func (f *respFrame) wireLen() int {
	n := len(*f.head)
	for _, p := range f.pages {
		n += len(p)
	}
	return n
}

// payloadLen is the logical response payload size (inline payload plus
// attached pages, excluding the request ID).
func (f *respFrame) payloadLen() int {
	n := len(f.inline)
	for _, p := range f.pages {
		n += len(p)
	}
	return n
}

func writeMsg(w *bufio.Writer, code byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = code
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readMsg(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxMessage {
		return 0, nil, fmt.Errorf("%w: message length %d", errProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// readMsgPooled is readMsg into a pooled buffer: it returns the whole body
// (code at index 0, payload after it); the caller must putBuf it once the
// payload is no longer referenced.
func readMsgPooled(r *bufio.Reader) (byte, *[]byte, error) {
	// Peek+Discard instead of ReadFull into a local array: the array would
	// escape through the io.Reader interface and cost one allocation per
	// message.
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if _, err := r.Discard(4); err != nil {
		return 0, nil, err
	}
	if n < 1 || n > maxMessage {
		return 0, nil, fmt.Errorf("%w: message length %d", errProtocol, n)
	}
	body := getBuf(int(n))
	if _, err := io.ReadFull(r, *body); err != nil {
		putBuf(body)
		return 0, nil, err
	}
	return (*body)[0], body, nil
}

// requestLen is the on-wire size of a request frame with this payload.
func requestLen(payload []byte) int { return 4 + 1 + 8 + len(payload) + trace.WireLen }

// putRequest writes one complete request frame — header, opcode, request
// ID, payload, trace-context suffix (all zeros when ctx is untraced) — at
// the start of b and returns the rest of b.
func putRequest(b []byte, op byte, id uint64, payload []byte, ctx trace.Context) []byte {
	binary.LittleEndian.PutUint32(b, uint32(1+8+len(payload)+trace.WireLen))
	b[4] = op
	binary.LittleEndian.PutUint64(b[5:], id)
	copy(b[13:], payload)
	trace.PutWire(b[13+len(payload):], ctx)
	return b[requestLen(payload):]
}

// encodeRequest builds one request frame in a pooled buffer; the writer
// releases it after the bytes are on the wire.
func encodeRequest(op byte, id uint64, payload []byte, ctx trace.Context) *[]byte {
	bp := getBuf(requestLen(payload))
	putRequest(*bp, op, id, payload, ctx)
	return bp
}

func putOID(b []byte, id oid.OID) { binary.LittleEndian.PutUint64(b, uint64(id)) }
func getOID(b []byte) oid.OID     { return oid.OID(binary.LittleEndian.Uint64(b)) }

func putPAddr(b []byte, a storage.PAddr) {
	binary.LittleEndian.PutUint64(b, uint64(a.Page))
	binary.LittleEndian.PutUint16(b[8:], a.Slot)
}

func getPAddr(b []byte) storage.PAddr {
	return storage.PAddr{
		Page: page.PageID(binary.LittleEndian.Uint64(b)),
		Slot: binary.LittleEndian.Uint16(b[8:]),
	}
}

// TCPServer serves a storage manager over TCP to any number of clients.
// When constructed with ServeTx it additionally offers per-connection
// transactions.
type TCPServer struct {
	mgr *storage.Manager
	tx  *TxServer // nil when serving non-transactionally
	// local is the shared backend of a plain Serve's connections. It is
	// stateless (the manager carries all state), so one instance serves all
	// goroutines and the dispatch path allocates nothing.
	local *Local

	ln net.Listener

	// obs is the observability registry; an atomic pointer so SetMetrics
	// can be called while connection goroutines are already serving.
	obs atomic.Pointer[metrics.Registry]
	// tracer records server-side request spans (see trace.go); nil when
	// tracing is off.
	tracer atomic.Pointer[trace.Tracer]
	// coh is the callback/lease coherence machinery; nil until
	// EnableCoherence (featureCoherence is only advertised once set).
	coh atomic.Pointer[coherenceState]

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	debug  *debugServer // non-nil once StartDebug has run
}

// Serve starts serving the manager on the listener. It returns immediately;
// use Close to stop.
func Serve(ln net.Listener, mgr *storage.Manager) *TCPServer {
	s := &TCPServer{mgr: mgr, local: NewLocal(mgr), ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ServeTx serves a transactional server: clients may bracket their work in
// BeginTx/CommitTx/AbortTx, and a data request outside a transaction runs
// as a transaction of its own. A connection that drops mid-transaction has
// its transaction aborted.
func ServeTx(ln net.Listener, tx *TxServer) *TCPServer {
	s := &TCPServer{mgr: tx.Manager(), tx: tx, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// SetMetrics installs (or removes, with nil) the observability registry
// recording per-RPC latency histograms and protocol errors, and wires the
// storage manager's disk I/O counters to the same registry. Safe to call
// while the server is running.
func (s *TCPServer) SetMetrics(r *metrics.Registry) {
	s.obs.Store(r)
	s.mgr.Disk().SetMetrics(r)
	if w := s.mgr.WAL(); w != nil {
		w.SetMetrics(r)
	}
	if s.tx != nil {
		s.tx.SetMetrics(r)
	}
}

// Metrics returns the installed registry, or nil.
func (s *TCPServer) Metrics() *metrics.Registry { return s.obs.Load() }

// rpcOpOf maps a wire opcode to its latency histogram, or -1.
func rpcOpOf(op byte) metrics.RPCOp {
	switch op {
	case opLookup:
		return metrics.RPCLookup
	case opReadPage:
		return metrics.RPCReadPage
	case opWritePage:
		return metrics.RPCWritePage
	case opAllocate:
		return metrics.RPCAllocate
	case opAllocateNear:
		return metrics.RPCAllocateNear
	case opUpdateObject:
		return metrics.RPCUpdateObject
	case opNumPages:
		return metrics.RPCNumPages
	case opTxBegin:
		return metrics.RPCTxBegin
	case opTxCommit:
		return metrics.RPCTxCommit
	case opTxAbort:
		return metrics.RPCTxAbort
	case opHello:
		return metrics.RPCHello
	case opLookupBatch:
		return metrics.RPCLookupBatch
	case opReadPages:
		return metrics.RPCReadPages
	case opTxBeginSnapshot:
		return metrics.RPCTxBeginSnapshot
	case opInvalidate:
		return metrics.RPCInvalidate
	case opCoherenceAck:
		return metrics.RPCCoherenceAck
	}
	return -1
}

// Close stops the server, closes all client connections, and shuts down
// the debug endpoint if one was started.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	debug := s.debug
	s.debug = nil
	s.mu.Unlock()
	if debug != nil {
		debug.close()
	}
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState carries the per-connection transactional state. Only the
// connection's reader goroutine writes it, at transaction boundaries, which
// wait for the connection's outstanding data operations.
type connState struct {
	tx   TxID
	sess dirPageReader // the transaction session, or nil outside a transaction
	// coh is the connection's coherence endpoint: non-nil only on a
	// connection that negotiated featureCoherence. Set once before
	// dispatch goroutines start, read-only afterwards.
	coh *cohConn
}

// acceptHello checks the frame that opens a connection and returns the
// feature bits agreed: the baseline, plus coherence when the client offers
// it and EnableCoherence ran, plus featureTx when the client offers it and
// the server is transactional. Anything but a well-formed hello of version
// 2 or later offering the whole baseline is an error.
func (s *TCPServer) acceptHello(op byte, payload []byte) (uint32, error) {
	if op != opHello {
		return 0, fmt.Errorf("%w: connection must open with hello, got opcode %d", errProtocol, op)
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: hello payload of %d bytes", errProtocol, len(payload))
	}
	if ver := binary.LittleEndian.Uint32(payload); ver < protocolV2 {
		return 0, fmt.Errorf("%w: client protocol version %d", errProtocol, ver)
	}
	offered := binary.LittleEndian.Uint32(payload[4:])
	if offered&baselineFeatures != baselineFeatures {
		return 0, fmt.Errorf("%w: client features %#x lack the baseline %#x", errProtocol, offered, baselineFeatures)
	}
	agreed := uint32(baselineFeatures)
	if s.coh.Load() != nil {
		agreed |= offered & featureCoherence
	}
	if s.tx != nil {
		agreed |= offered & featureTx
	}
	return agreed, nil
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := &connState{}
	defer func() {
		// A dropped connection aborts its in-flight transaction.
		if s.tx != nil && cs.sess != nil {
			_ = s.endTx(cs.tx, cs.coh, false, trace.Context{}) // nobody is left to tell
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, page.Size+1024)
	op, body, err := readMsgPooled(r)
	if err != nil {
		return
	}
	obs := s.obs.Load()
	start := obs.Now()
	agreed, herr := s.acceptHello(op, (*body)[1:])
	putBuf(body)
	obs.RPCSince(metrics.RPCHello, start)
	w := bufio.NewWriter(conn)
	if herr != nil {
		// Refused: one error frame, then the deferred close.
		obs.Inc(metrics.CtrRPCError)
		_ = writeMsg(w, statusErr, []byte(herr.Error())) // the peer is being dropped either way
		return
	}
	var resp [8]byte
	binary.LittleEndian.PutUint32(resp[:], protocolV2)
	binary.LittleEndian.PutUint32(resp[4:], agreed)
	if err := writeMsg(w, statusOK, resp[:]); err != nil {
		return
	}
	// writeMsg flushed the bufio writer, so the pipelined writer can take
	// over the raw connection for vectored writes.
	s.servePipelined(conn, r, cs, agreed&featureCoherence != 0)
}

// servePipelined serves a connection after its hello: the reader
// dispatches each data request to its own goroutine (bounded by
// pipelineWorkers), a writer goroutine streams responses back as they
// complete, and transaction boundaries wait for the connection's
// outstanding data operations so 2PL session routing stays well defined.
//
// Responses travel as respFrames: a pooled header plus page images
// borrowed from the copy-on-write page store. The writer gathers every
// frame already queued into one net.Buffers vectored write (writev), so a
// burst of pipelined responses reaches the socket in a single syscall
// without ever being re-buffered into a contiguous stream.
func (s *TCPServer) servePipelined(conn net.Conn, r *bufio.Reader, cs *connState, coherent bool) {
	respCh := make(chan *respFrame, pipelineWorkers*2)
	if coherent {
		cs.coh = s.coh.Load().attach(conn, respCh)
	}
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var werr error
		batch := make([]*respFrame, 0, pipelineWorkers)
		vecs := make([][]byte, 0, 2*pipelineWorkers)
		for frame := range respCh {
			if werr != nil {
				putFrame(frame) // drain so dispatchers never block
				continue
			}
			batch = append(batch[:0], frame)
			// Coalesce: gather whatever is already queued so the burst
			// goes out in one vectored write.
		coalesce:
			for {
				select {
				case next, ok := <-respCh:
					if !ok {
						break coalesce
					}
					batch = append(batch, next)
				default:
					break coalesce
				}
			}
			vecs = vecs[:0]
			for _, f := range batch {
				vecs = append(vecs, *f.head)
				vecs = append(vecs, f.pages...)
			}
			// net.Buffers.WriteTo advances its receiver as it consumes the
			// vectors; vecs itself is rebuilt each round, so the mutation
			// is harmless.
			nb := net.Buffers(vecs)
			if _, werr = nb.WriteTo(conn); werr != nil {
				conn.Close() // unblocks the reader
			}
			for _, f := range batch {
				putFrame(f)
			}
		}
	}()

	// respond finalizes the frame with the outcome and queues it for the
	// writer, which releases it after the bytes are on the wire.
	respond := func(op byte, id uint64, f *respFrame, err error) {
		if err != nil {
			obs := s.obs.Load()
			obs.Inc(metrics.CtrRPCError)
			// Drop any partial payload: an error response carries only
			// the message.
			for i := range f.pages {
				f.pages[i] = nil
			}
			f.pages = f.pages[:0]
			f.inline = []byte(err.Error())
			f.encode(statusOf(err), id)
			if rpc := rpcOpOf(op); rpc >= 0 {
				obs.RPCFrame(rpc, true, f.wireLen())
			}
			respCh <- f
			return
		}
		f.encode(statusOK, id)
		if rpc := rpcOpOf(op); rpc >= 0 {
			s.obs.Load().RPCFrame(rpc, true, f.wireLen())
		}
		respCh <- f
	}

	sem := make(chan struct{}, pipelineWorkers)
	var dataWG sync.WaitGroup
	for {
		op, body, err := readMsgPooled(r)
		if err != nil {
			break
		}
		payload := (*body)[1:]
		if len(payload) < 8 {
			putBuf(body)
			break // pipelined frames always carry a request ID
		}
		id := binary.LittleEndian.Uint64(payload)
		req := payload[8:]
		// Every request frame carries the fixed-size context suffix; strip
		// it before dispatch.
		if len(req) < trace.WireLen {
			putBuf(body)
			break
		}
		tctx := trace.FromWire(req[len(req)-trace.WireLen:])
		req = req[:len(req)-trace.WireLen]
		if rpc := rpcOpOf(op); rpc >= 0 {
			s.obs.Load().RPCFrame(rpc, false, len(*body)+4)
		}
		if op == opHello {
			// A connection has one hello. A second is refused like a bad
			// first frame: one error frame (the writer drains it below),
			// then the connection closes.
			putBuf(body)
			respond(op, id, getFrame(), fmt.Errorf("%w: hello on an established connection", errProtocol))
			break
		}
		switch op {
		case opCoherenceAck:
			// Fire-and-forget acknowledgement of an applied invalidation
			// round: record the epoch and release any commit waiting on
			// it. No response frame — the ack is the response.
			if cs.coh != nil && len(req) >= 8 {
				s.obs.Load().Inc(metrics.CtrCoherenceAcked)
				cs.coh.ack(binary.LittleEndian.Uint64(req))
			}
			putBuf(body)
		case opTxBegin, opTxBeginSnapshot, opTxCommit, opTxAbort:
			// Transaction boundaries order after the connection's
			// outstanding data operations: a pipelined commit must not
			// overtake the writes it is meant to commit.
			dataWG.Wait()
			obs := s.obs.Load()
			start := obs.Now()
			sp := s.tracer.Load().StartChild(spanName(&serverSpanNames, op), tctx)
			resp, herr := s.handle(cs, op, req, sp.Context())
			sp.Finish()
			if rpc := rpcOpOf(op); rpc >= 0 {
				d := obs.RPCSinceTrace(rpc, start, tctx.TraceID)
				if op != opTxCommit {
					s.noteSlow(obs, rpc, d, tctx)
				}
			}
			putBuf(body)
			f := getFrame()
			f.inline = resp
			respond(op, id, f, herr)
		default:
			// The backend is resolved at dispatch time on the reader
			// goroutine, so a request pipelined inside a transaction uses
			// that transaction's session even while other requests run;
			// nil is a request that runs as a transaction of its own.
			backend := s.backend(cs)
			sem <- struct{}{}
			dataWG.Add(1)
			obs := s.obs.Load()
			obs.GaugeAdd(metrics.GaugeInFlightRPC, 1)
			go func(op byte, id uint64, body *[]byte, req []byte, tctx trace.Context) {
				defer func() {
					obs.GaugeAdd(metrics.GaugeInFlightRPC, -1)
					dataWG.Done()
					<-sem
				}()
				start := obs.Now()
				sp := s.tracer.Load().StartChild(spanName(&serverSpanNames, op), tctx)
				f := getFrame()
				var herr error
				if backend == nil {
					herr = s.autoTx(cs, op, req, f, sp.Context())
				} else {
					herr = s.handleDataFrame(backend, cs, op, req, f)
				}
				if sp.Sampled() {
					sp.SetArgs(uint64(len(req)), uint64(f.payloadLen()))
					sp.Finish()
				}
				if rpc := rpcOpOf(op); rpc >= 0 {
					d := obs.RPCSinceTrace(rpc, start, tctx.TraceID)
					s.noteSlow(obs, rpc, d, tctx)
				}
				putBuf(body)
				respond(op, id, f, herr)
			}(op, id, body, req, tctx)
		}
	}
	dataWG.Wait()
	if cs.coh != nil {
		// Detach before respCh closes: detach marks the endpoint closed
		// under its lock, so no invalidation push from another
		// connection's commit can race onto the closing channel, and
		// every commit still waiting on this connection's ack is
		// released.
		s.coh.Load().detach(cs.coh, s.obs.Load())
	}
	close(respCh)
	writerWG.Wait()
}

// backend selects the data-plane server for the connection: the raw
// manager on a plain server; on a transactional one the live session, or
// nil outside a transaction — the request then runs as one of its own.
func (s *TCPServer) backend(cs *connState) dirPageReader {
	if s.tx != nil {
		return cs.sess
	}
	return s.local
}

// autoTx serves a data request outside a transaction on a transactional
// server as a transaction of one operation, served through its session and
// ended through endTx like any other: committed, or aborted when the
// operation fails or its commit fails and leaves it alive.
func (s *TCPServer) autoTx(cs *connState, op byte, req []byte, f *respFrame, tctx trace.Context) error {
	tx := s.tx.Begin()
	err := s.handleDataFrame(s.tx.session(tx), cs, op, req, f)
	if err == nil {
		err = s.endTx(tx, cs.coh, true, tctx)
	}
	if err != nil && s.tx.Alive(tx) {
		_ = s.endTx(tx, cs.coh, false, tctx) // the answer is err either way
	}
	return err
}

// noteSlow records an over-threshold RPC into the registry's slow-op
// log. d is the latency already measured by RPCSince/RPCSinceTrace, so
// the gate costs no extra clock read. Durable commits are excluded at
// the call sites — CommitCtx records those with their phase breakdown
// attached.
func (s *TCPServer) noteSlow(obs *metrics.Registry, rpc metrics.RPCOp, d time.Duration, tctx trace.Context) {
	sl := obs.Slow()
	t := sl.Threshold()
	if t <= 0 || d < t {
		return
	}
	sl.Note(metrics.SlowEntry{Op: rpc.String(), DurNS: int64(d), TraceID: tctx.TraceID})
}

// handle executes one transaction-boundary request: opTxBegin,
// opTxBeginSnapshot, opTxCommit or opTxAbort. Only opTxBeginSnapshot has a
// payload. tctx is the server-side span context of the enclosing RPC (zero
// when tracing is off); commit threads it into the commit pipeline so
// per-phase spans nest under the server's tx_commit span.
func (s *TCPServer) handle(cs *connState, op byte, payload []byte, tctx trace.Context) ([]byte, error) {
	switch op {
	case opTxBegin:
		if s.tx == nil {
			return nil, errNotTransactional
		}
		if cs.sess != nil {
			return nil, errTxOpen
		}
		cs.tx = s.tx.Begin()
		cs.sess = s.tx.session(cs.tx)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(cs.tx))
		return out, nil
	case opTxBeginSnapshot:
		if s.tx == nil {
			return nil, errNotTransactional
		}
		if cs.sess != nil {
			return nil, errTxOpen
		}
		// A coherent connection names its previous read-LSN and is told
		// what changed since; any other sends nothing and is told nothing.
		validate := cs.coh != nil
		if (validate && len(payload) != 8) || (!validate && len(payload) != 0) {
			return nil, errProtocol
		}
		tx, readLSN, err := s.tx.BeginSnapshot()
		if err != nil {
			// Typically storage.ErrVersionCapExceeded: the version store
			// is retaining more than its configured cap, so new snapshots
			// are refused until retirement catches up.
			return nil, err
		}
		cs.tx = tx
		cs.sess = s.tx.session(tx)
		out := make([]byte, 16)
		binary.LittleEndian.PutUint64(out, uint64(tx))
		binary.LittleEndian.PutUint64(out[8:], readLSN)
		if validate {
			// Read point first, then the log (changelog.go): whatever this
			// snapshot can see was logged before it became visible.
			pages, ok := s.coh.Load().log.since(binary.LittleEndian.Uint64(payload))
			out = appendChanged(out, pages, ok)
		}
		return out, nil
	default: // opTxCommit, opTxAbort
		if s.tx == nil || cs.sess == nil {
			return nil, errors.New("server: no open transaction")
		}
		err := s.endTx(cs.tx, cs.coh, op == opTxCommit, tctx)
		if err != nil && s.tx.Alive(cs.tx) {
			// A failed commit (e.g. the group-commit flush errored) leaves
			// the transaction live and lock-holding; keep it bound to the
			// connection so the client can abort or retry instead of
			// orphaning it.
			return nil, err
		}
		cs.sess = nil
		cs.tx = 0
		return nil, err
	}
}

// endTx commits or aborts a transaction of the connection with coherence
// endpoint cc and, on a coherent server, tells the caches what it changed.
// The X-locked page set is taken before the locks are released: these are
// the pages whose images the transaction changed. It is logged before the commit can make them visible
// to a snapshot (changelog.go), and once the commit is durable every other
// interested client is called back for them. An abort changes no value, but
// its undo may leave an object in another slot than it found it in, so its
// pages are logged too.
func (s *TCPServer) endTx(tx TxID, cc *cohConn, commit bool, tctx trace.Context) error {
	st := s.coh.Load()
	var writeSet []page.PageID
	var logged loggedWrite
	if st != nil {
		if writeSet = s.tx.WriteSet(tx); len(writeSet) > 0 {
			logged = s.logWrite(st, writeSet)
		}
	}
	var err error
	if commit {
		err = s.tx.CommitCtx(tx, s.tracer.Load(), tctx)
	} else {
		err = s.tx.Abort(tx)
	}
	if len(writeSet) > 0 {
		// A transaction that failed to end and stays alive still holds its
		// locks: nothing of it is visible, and its next attempt logs again.
		s.settleWrite(st, logged, err == nil || !s.tx.Alive(tx))
	}
	if commit && err == nil {
		s.coherencePush(writeSet, cc.clientID(), tctx)
	}
	return err
}

// handleData executes one data request whose response is small enough to
// ride inline in the frame header; the page-shipping opcodes — opLookup
// among them — are handleDataFrame's.
func (s *TCPServer) handleData(backend Server, op byte, payload []byte) ([]byte, error) {
	switch op {
	case opWritePage:
		if len(payload) != 8+page.Size {
			return nil, errProtocol
		}
		pid := page.PageID(binary.LittleEndian.Uint64(payload))
		return nil, backend.WritePage(pid, payload[8:])
	case opAllocate:
		if len(payload) < 2 {
			return nil, errProtocol
		}
		seg := binary.LittleEndian.Uint16(payload)
		id, addr, err := backend.Allocate(seg, payload[2:])
		if err != nil {
			return nil, err
		}
		out := make([]byte, 18)
		putOID(out, id)
		putPAddr(out[8:], addr)
		return out, nil
	case opAllocateNear:
		if len(payload) < 10 {
			return nil, errProtocol
		}
		seg := binary.LittleEndian.Uint16(payload)
		neighbor := getOID(payload[2:])
		id, addr, err := backend.AllocateNear(seg, neighbor, payload[10:])
		if err != nil {
			return nil, err
		}
		out := make([]byte, 18)
		putOID(out, id)
		putPAddr(out[8:], addr)
		return out, nil
	case opUpdateObject:
		if len(payload) < 8 {
			return nil, errProtocol
		}
		addr, err := backend.UpdateObject(getOID(payload), payload[8:])
		if err != nil {
			return nil, err
		}
		out := make([]byte, 10)
		putPAddr(out, addr)
		return out, nil
	case opNumPages:
		if len(payload) != 2 {
			return nil, errProtocol
		}
		n, err := backend.NumPages(binary.LittleEndian.Uint16(payload))
		if err != nil {
			return nil, err
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(n))
		return out, nil
	case opLookupBatch:
		if len(payload) < 4 {
			return nil, errProtocol
		}
		n := binary.LittleEndian.Uint32(payload)
		if n == 0 || n > maxBatchLookup || len(payload) != 4+int(n)*8 {
			return nil, errProtocol
		}
		bl, ok := backend.(BatchLookuper)
		if !ok {
			return nil, fmt.Errorf("%w: batch lookup unsupported", errProtocol)
		}
		ids := make([]oid.OID, n)
		for i := range ids {
			ids[i] = getOID(payload[4+i*8:])
		}
		addrs, found, err := bl.LookupBatch(ids)
		if err != nil {
			return nil, err
		}
		obs := s.obs.Load()
		obs.Inc(metrics.CtrBatchLookup)
		obs.AddN(metrics.CtrBatchLookupOIDs, int64(n))
		out := make([]byte, int(n)*11)
		for i := range ids {
			e := out[i*11:]
			if found[i] {
				e[0] = 1
				putPAddr(e[1:], addrs[i])
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: opcode %d", errProtocol, op)
	}
}

// handleDataFrame executes one data request into its response frame. The
// page-shipping opcodes attach the page images and directories borrowed
// from the copy-on-write store instead of copying them into a contiguous
// payload (the writer scatter-gathers the pieces); every other opcode
// falls through to handleData and rides in the frame's inline payload.
func (s *TCPServer) handleDataFrame(backend dirPageReader, cs *connState, op byte, payload []byte, f *respFrame) error {
	cc := cs.coh
	// Snapshot sessions read at a frozen LSN and are stale by design;
	// their reads never register coherence interest.
	if _, snap := backend.(*snapSession); snap {
		cc = nil
	}
	switch op {
	case opLookup:
		if len(payload) != 8 {
			return errProtocol
		}
		id := getOID(payload)
		addr, err := backend.Lookup(id)
		if err != nil {
			return err
		}
		// The answer brings the object's page where something covers the
		// copy the client will hold (lookupPage); elsewhere this is the
		// whole answer, one call deep. A transaction of one operation is
		// not such a cover: its S-lock ends with the operation.
		if cs.sess != nil || cc != nil {
			return s.lookupPage(backend, cc, id, addr, f)
		}
		putPAddr(f.scratch[:10], addr)
		f.inline = f.scratch[:10]
		return nil
	case opReadPage:
		if len(payload) != 8 {
			return errProtocol
		}
		pid := page.PageID(binary.LittleEndian.Uint64(payload))
		img, dir, err := s.readPageCoherent(backend, cc, pid)
		if err != nil {
			return err
		}
		s.attachPage(f, img, dir)
		return nil
	case opReadPages:
		if len(payload) != 12 {
			return errProtocol
		}
		pid := page.PageID(binary.LittleEndian.Uint64(payload))
		n := binary.LittleEndian.Uint32(payload[8:])
		if n == 0 || n > maxReadRun {
			return errProtocol
		}
		imgs, dirs, err := s.readPagesCoherent(backend, cc, pid, int(n))
		if err != nil {
			return err
		}
		// The count is followed by one uint16 a page, the byte length of
		// the directory shipped behind that image.
		binary.LittleEndian.PutUint32(f.scratch[:4], uint32(len(imgs)))
		f.inline = f.scratch[:4+2*len(imgs)]
		shipped := 0
		for i, img := range imgs {
			f.pages = append(f.pages, img)
			n := f.attachDirectory(dirs[i])
			binary.LittleEndian.PutUint16(f.inline[4+2*i:], uint16(n))
			shipped += n
		}
		s.obs.Load().AddN(metrics.CtrPageDirExtents, int64(shipped/page.ExtentSize))
		return nil
	default:
		resp, err := s.handleData(backend, op, payload)
		if err != nil {
			return err
		}
		f.inline = resp
		return nil
	}
}

// attachPage makes one page the (rest of the) frame's payload: the image,
// then the shipped directory, whose length is what the frame holds past
// page.Size.
func (s *TCPServer) attachPage(f *respFrame, img []byte, dir page.Directory) {
	f.pages = append(f.pages, img)
	s.obs.Load().AddN(metrics.CtrPageDirExtents, int64(f.attachDirectory(dir)/page.ExtentSize))
}

// lookupResolves bounds how often one opLookup re-resolves an object that
// relocates while its page is being read.
const lookupResolves = 3

// lookupPage finishes the answer to opLookup for an object the POT has at
// addr: the address and, behind it, the page at that address exactly as
// opReadPage would ship it — read under the same interest registration and
// S-lock — so an object fault is one conversation (DESIGN.md "Page
// directories"). The client keeps the page until its ReadPage asks for it,
// so the caller comes here only where something covers that copy: the
// connection's interest registration, a 2PL session's S-lock, or a
// snapshot's read point — the version there is immutable, and the next
// snapshot begin names the page if it changes. A connection without
// callbacks outside a transaction has none of them: address alone.
//
// The page rides along when its shipped directory names the object at the
// slot the POT gave: a client that held this page would have resolved the
// object from that directory and not asked. A directory cut by the shipping
// cap may not name the object, and then the asking client may well hold the
// page already: address only. A directory that contradicts the POT means
// the object relocated between the two reads; the address is resolved again
// (the two-call fault had the same window between its calls and no way to
// notice). A snapshot's address is its read point's and reading again
// cannot change it, so a snapshot page whose directory was withheld is
// read once and the answer is the address alone.
func (s *TCPServer) lookupPage(backend dirPageReader, cc *cohConn, id oid.OID, addr storage.PAddr, f *respFrame) error {
	resolves := lookupResolves
	if _, snap := backend.(*snapSession); snap {
		resolves = 1
	}
	ship := false
	var img []byte
	var dir page.Directory
	for attempt := 0; attempt < resolves; attempt++ {
		var err error
		if img, dir, err = s.readPageCoherent(backend, cc, addr.Page); err != nil {
			return err
		}
		if slot, named := dir.Shipped().Find(id); named && slot == int(addr.Slot) {
			ship = true
			break
		}
		if slot, named := dir.Find(id); named && slot == int(addr.Slot) {
			break // named past the shipping cap
		}
		if addr, err = backend.Lookup(id); err != nil {
			return err
		}
	}
	putPAddr(f.scratch[:10], addr)
	f.inline = f.scratch[:10]
	if ship {
		s.attachPage(f, img, dir)
	}
	return nil
}

// attachDirectory appends the shipped part of a page's directory to the
// frame as one more borrowed piece and returns its byte length.
func (f *respFrame) attachDirectory(dir page.Directory) int {
	dir = dir.Shipped()
	if len(dir) > 0 {
		f.pages = append(f.pages, dir)
	}
	return len(dir)
}

// serveReadPageFrame drives the server's ReadPage response path — request
// decode, page read, frame assembly, release — without a socket,
// returning the frame's on-wire size. req is the 8-byte ReadPage request
// payload (the page ID). BenchmarkServerReadPageHot and the zero-alloc
// guard TestServerReadPageHotZeroAlloc use it to measure the hot read path
// in isolation.
func serveReadPageFrame(backend *Local, req []byte) (int, error) {
	if len(req) != 8 {
		return 0, errProtocol
	}
	img, dir, err := backend.readPageDir(page.PageID(binary.LittleEndian.Uint64(req)))
	if err != nil {
		return 0, err
	}
	f := getFrame()
	f.pages = append(f.pages, img)
	f.attachDirectory(dir)
	f.encode(statusOK, 1)
	n := f.wireLen()
	putFrame(f)
	return n, nil
}
