package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/oo1"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/trace"
)

// The production configuration every workload runs against. Nothing here
// is tuned for the benchmark: defaults wherever the program has them.
const (
	lockTimeout = 500 * time.Millisecond
	// spanRing is the per-shard depth of the program's own span rings in a
	// traced run. The rings only feed the Chrome export (the per-layer
	// numbers come from the benchmark's recorder and the registries), so a
	// few thousand of the most recent spans per source is plenty.
	spanRing = 512
	// spanSample is the head-sampling rate of those rings: one in this
	// many root spans is kept. `oo1bench -trace` samples every root, but
	// the object manager opens a root span per field read, and on
	// hot_traverse sampling all of them costs 55 % of throughput — a ruler
	// that stretches what it measures. The benchmark's own recorder is not
	// sampled.
	spanSample = 64
)

// stack is one full system in one process: a generated OO1 base behind a
// write-ahead log with group commit and fsync on, a transactional TCP page
// server with cache coherence, and the object-manager clients dialled to
// it over loopback.
type stack struct {
	db     *oo1.DB
	dir    string
	wal    *storage.WAL
	mgr    *storage.Manager
	srv    *server.TCPServer
	reg    *metrics.Registry // server, disk, WAL, tx manager, version store
	tracer *trace.Tracer     // server-side span ring (traced runs)

	clients []*client
}

// client is one connection with its object manager; exactly one goroutine
// drives it.
type client struct {
	id   int
	db   *oo1.DB
	conn *server.Client
	rpc  *rpcRecorder // the decorator core.OM talks through
	om   *core.OM
	reg  *metrics.Registry
	rec  *recorder

	ackedUpdates int64 // update transactions whose CommitTx returned nil
}

// scratchRoot is where WAL directories live: under the working directory,
// i.e. on the checkout's own filesystem, never in the system temp dir.
func scratchRoot() (string, error) {
	const root = ".bench_scratch"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return root, nil
}

// newStack generates the base from the seed and brings the whole system up.
//
// flush says whether a commit waits for the disk. The per-layer (traced) run
// does: fsync on, as in production, and wal.phase_us.fsync is what this
// disk costs. The gating run does not — every record is still written and
// every commit still passes the sync site, through the program's own
// SetNoSync hook — because on this shared host one fsync is 260-300 µs,
// more than half of an update transaction, and the update p50 that contains
// it went from 440 to 740 µs within an hour on one seed: such a number
// gates on the neighbours' disk traffic.
func newStack(parts int, seed int64, bufferPages []int, flush bool) (*stack, error) {
	cfg := oo1.DefaultConfig().Scaled(parts)
	cfg.Seed = seed
	db, err := oo1.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	st := &stack{db: db, mgr: db.Srv.Manager(), reg: metrics.New()}
	ok := false
	defer func() {
		if !ok {
			st.close()
		}
	}()

	root, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	if st.dir, err = os.MkdirTemp(root, "wal-*"); err != nil {
		return nil, err
	}
	if st.wal, err = storage.CreateWAL(st.dir); err != nil {
		return nil, fmt.Errorf("create WAL: %w", err)
	}
	st.mgr.AttachWAL(st.wal)
	if err := st.wal.Checkpoint(st.mgr); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st.wal.EnableGroupCommit(storage.GroupCommitOptions{})
	if !flush {
		st.wal.SetNoSync(true)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = server.ServeTx(ln, server.NewTxServer(st.mgr, lockTimeout))
	st.srv.EnableCoherence(server.CoherenceOptions{})
	st.srv.SetMetrics(st.reg)
	st.mgr.Versions().SetMetrics(st.reg)

	for i, pages := range bufferPages {
		c, err := st.dial(i, pages)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	ok = true
	return st, nil
}

// dial connects one more client with its own registry and object manager.
func (st *stack) dial(id, bufferPages int) (*client, error) {
	reg := metrics.New()
	conn, err := server.DialWith(st.srv.Addr().String(), server.DialOptions{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := &client{id: id, db: st.db, conn: conn, reg: reg, rec: newRecorder(id)}
	c.rpc = &rpcRecorder{inner: conn, rec: c.rec}
	c.om, err = core.New(core.Options{
		Server:          c.rpc,
		Schema:          st.db.Schema,
		PageBufferPages: bufferPages,
		Metrics:         reg,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// setTraced switches the traced-run instrumentation on or off between
// operations: the benchmark's own recorder, and the program's span
// tracers on both sides of the wire, installed the way `oo1bench -trace`
// installs them.
func (st *stack) setTraced(on bool) {
	if !on {
		st.srv.SetTracer(nil)
		for _, c := range st.clients {
			c.om.SetTrace(nil)
			c.rec.enabled = false
		}
		return
	}
	if st.tracer == nil {
		st.tracer = trace.New(spanSample, spanRing)
	}
	st.srv.SetTracer(st.tracer)
	for _, c := range st.clients {
		if c.rec.tracer == nil {
			c.rec.tracer = trace.New(spanSample, spanRing)
		}
		c.om.SetTrace(c.rec.tracer)
		c.rec.enabled = true
	}
}

// close stops every goroutine the stack started and removes its files.
func (st *stack) close() {
	for _, c := range st.clients {
		c.conn.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.wal != nil {
		st.wal.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
		os.Remove(filepath.Dir(st.dir)) // the scratch root, once empty
	}
}
