package server

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/health"
	"gom/internal/metrics"
	"gom/internal/storage"
	"gom/internal/trace"
)

// TestOpcodeMetricsComplete is the observability completeness audit:
// every wire opcode must map to a distinct RPC latency histogram and
// carry a name in both span tables, so a new opcode cannot ship without
// its counters. It fails the moment someone appends an opcode without
// extending rpcOpOf, rpcNames, or the span tables.
func TestOpcodeMetricsComplete(t *testing.T) {
	seen := map[metrics.RPCOp]byte{}
	for op := byte(opLookup); op < byte(numOpcodes); op++ {
		rpc := rpcOpOf(op)
		if rpc < 0 {
			t.Errorf("opcode %d has no RPC histogram (rpcOpOf returned %d)", op, rpc)
			continue
		}
		if rpc >= metrics.NumRPCOps {
			t.Errorf("opcode %d maps to out-of-range RPCOp %d", op, rpc)
			continue
		}
		if prev, dup := seen[rpc]; dup {
			t.Errorf("opcodes %d and %d share RPC histogram %v", prev, op, rpc)
		}
		seen[rpc] = op
		if name := rpc.String(); strings.HasPrefix(name, "rpc(") {
			t.Errorf("opcode %d's RPCOp %d has no name (got fallback %q)", op, rpc, name)
		}
		if clientSpanNames[op] == "" {
			t.Errorf("opcode %d has no client span name", op)
		}
		if serverSpanNames[op] == "" {
			t.Errorf("opcode %d has no server span name", op)
		}
	}
	// And the inverse: every declared RPCOp is reachable from some
	// opcode, so no histogram can silently go dark.
	if len(seen) != int(metrics.NumRPCOps) {
		t.Errorf("%d of %d RPCOps reachable from opcodes", len(seen), metrics.NumRPCOps)
	}
}

// TestPageDirectoryMetricsLive is the liveness half of the audit for the
// page-directory instruments: after a few coherent page reads the server's
// registry shows page_dir_extents and the interest table's queue gauge
// under their documented names, in the JSON snapshot and in OpenMetrics.
func TestPageDirectoryMetricsLive(t *testing.T) {
	srv, _, _, addrs := dirFixture(t)
	reg := metrics.New()
	srv.SetMetrics(reg)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ { // re-reads re-register: the queue outgrows the table
		for _, a := range addrs {
			if _, err := c.ReadPage(a.Page); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := reg.Snapshot()
	if got := snap.Count(metrics.CtrPageDirExtents); got == 0 {
		t.Error("page_dir_extents = 0 after reads that shipped directories")
	}
	live, queue := snap.Gauges[metrics.GaugeCoherenceInterest], snap.Gauges[metrics.GaugeCoherenceQueue]
	if live == 0 || queue < live {
		t.Errorf("coherence_interest_entries = %d, coherence_interest_queue = %d", live, queue)
	}
	rec := httptest.NewRecorder()
	reg.OpenMetrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, name := range []string{"page_dir_extents", "coherence_interest_queue"} {
		if !strings.Contains(rec.Body.String(), name) || !strings.Contains(reg.String(), name) {
			t.Errorf("%s missing from the OpenMetrics or JSON rendering", name)
		}
	}
	// The client-side pair (object_fault_resolved_local / _rpc) lives on
	// the object manager's registry; its liveness is asserted where an
	// object manager runs (core.TestObjectFaultsResolveFromBufferedPages).
	for _, ctr := range []metrics.Counter{metrics.CtrObjectFaultLocal, metrics.CtrObjectFaultRPC, metrics.CtrPageDirExtents} {
		if name := ctr.String(); strings.HasPrefix(name, "counter(") {
			t.Errorf("counter %d has no name", ctr)
		}
	}
}

// durableTCP builds a transactional TCP server over a fresh WAL with a
// registry and a server-side tracer installed.
func durableTCP(t *testing.T) (*TCPServer, *storage.WAL, *metrics.Registry, *trace.Tracer) {
	t.Helper()
	dir := t.TempDir()
	m, w, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := m.CreateSegment(1); err != nil {
		t.Fatal(err)
	}
	ts := NewTxServer(m, 2*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	t.Cleanup(func() { srv.Close() })
	reg := metrics.New()
	srv.SetMetrics(reg)
	tr := trace.New(1, 512)
	srv.SetTracer(tr)
	return srv, w, reg, tr
}

// commitPhases are the pipeline-stage histograms a durable TCP commit
// must populate (the tentpole's >=4 named phases, plus linger).
var commitPhases = []metrics.Hist{
	metrics.HistPhaseEnqueueWait,
	metrics.HistPhaseLinger,
	metrics.HistPhaseAppend,
	metrics.HistPhaseFsync,
	metrics.HistPhasePublish,
	metrics.HistPhaseLockRelease,
}

// TestTCPCommitPhaseDecomposition is the tentpole contract: one durable
// commit over TCP must decompose into named pipeline phases visible in
// BOTH the metrics histograms (wal_phase_*, /metrics) and the trace
// spans (commit:*, nested under the server's tx_commit span in the
// client's trace).
func TestTCPCommitPhaseDecomposition(t *testing.T) {
	srv, _, reg, serverTr := durableTCP(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clientTr := trace.New(1, 512)
	root := clientTr.Start("test:txn", trace.Context{})
	c.SetTrace(clientTr, func() trace.Context { return root.Context() })

	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Allocate(1, []byte("phase-decomposition")); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	// Metrics side: every phase histogram and the end-to-end histogram
	// saw the commit.
	s := reg.Snapshot()
	for _, h := range commitPhases {
		if s.Hists[h].Count == 0 {
			t.Errorf("phase histogram %v recorded nothing", h)
		}
	}
	if s.Hists[metrics.HistCommitE2E].Count == 0 {
		t.Error("commit_e2e_latency recorded nothing")
	}

	// ... and the phases are scrapeable by name from /metrics.
	rr := httptest.NewRecorder()
	reg.OpenMetrics().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := rr.Body.String()
	for _, h := range commitPhases {
		if !strings.Contains(text, h.String()) {
			t.Errorf("/metrics does not expose %q", h.String())
		}
	}

	// Trace side: the server recorded a tx_commit span in the client's
	// trace, and >=4 distinct commit:* phase spans nested under it.
	rootCtx := root.Context()
	var commitSpan *trace.Record
	for _, r := range serverTr.Records() {
		if r.Name == "server:tx_commit" && r.TraceID == rootCtx.TraceID {
			cp := r
			commitSpan = &cp
		}
	}
	if commitSpan == nil {
		t.Fatal("no server:tx_commit span recorded in the client's trace")
	}
	phaseSpans := map[string]bool{}
	for _, r := range serverTr.Records() {
		if r.Parent == commitSpan.SpanID && strings.HasPrefix(r.Name, "commit:") {
			phaseSpans[r.Name] = true
		}
	}
	if len(phaseSpans) < 4 {
		t.Fatalf("commit decomposed into %d phase spans %v, want >= 4", len(phaseSpans), phaseSpans)
	}
	for _, want := range []string{spanCommitAppend, spanCommitFsync, spanCommitLockRelease} {
		if !phaseSpans[want] {
			t.Errorf("phase span %q missing under server:tx_commit (got %v)", want, phaseSpans)
		}
	}
}

// TestPhaseHistogramConsistency drives a mixed workload — concurrent
// durable writers, snapshot readers, plain readers — and then checks the
// arithmetic the phase decomposition promises:
//
//   - sum(enqueue_wait + append + fsync + publish + lock_release)
//     <= sum(commit e2e): stages are contained in commit windows (the
//     batch-shared stages land inside their first member's window);
//   - sum(linger) <= sum(enqueue_wait): the gather wait is part of the
//     first member's queued time;
//   - no histogram bucket ever decreases between snapshots.
//
// Run under -race in CI, this doubles as the data-race check on the
// phase plumbing.
func TestPhaseHistogramConsistency(t *testing.T) {
	srv, _, reg, _ := durableTCP(t)

	before := reg.Snapshot()
	const workers = 4
	const rounds = 8
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Errorf("worker %d dial: %v", wk, err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				switch {
				case wk == workers-1 && i%2 == 0:
					// Snapshot reader: begin/commit only (read-only).
					if _, _, err := c.BeginSnapshotTx(); err != nil {
						t.Errorf("worker %d snapshot begin: %v", wk, err)
						return
					}
					if _, err := c.NumPages(1); err != nil {
						t.Errorf("worker %d snapshot read: %v", wk, err)
					}
					if err := c.CommitTx(); err != nil {
						t.Errorf("worker %d snapshot commit: %v", wk, err)
						return
					}
				default:
					if _, err := c.BeginTx(); err != nil {
						t.Errorf("worker %d begin: %v", wk, err)
						return
					}
					if _, _, err := c.Allocate(1, []byte("mixed-workload-record")); err != nil {
						t.Errorf("worker %d allocate: %v", wk, err)
						_ = c.AbortTx()
						return
					}
					if err := c.CommitTx(); err != nil {
						t.Errorf("worker %d commit: %v", wk, err)
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	after, delta := reg.DeltaSince(before)
	_ = after
	for h := metrics.Hist(0); h < metrics.NumHists; h++ {
		for b, n := range delta.Hists[h].Buckets {
			if n < 0 {
				t.Errorf("histogram %v bucket %d went backwards: %d", h, b, n)
			}
		}
	}

	s := reg.Snapshot()
	e2e := s.Hists[metrics.HistCommitE2E]
	if e2e.Count == 0 {
		t.Fatal("mixed workload produced no durable commits")
	}
	var phaseSum int64
	for _, h := range []metrics.Hist{
		metrics.HistPhaseEnqueueWait,
		metrics.HistPhaseAppend,
		metrics.HistPhaseFsync,
		metrics.HistPhasePublish,
		metrics.HistPhaseLockRelease,
	} {
		hs := s.Hists[h]
		if hs.SumNS < 0 {
			t.Errorf("phase %v has negative total %d", h, hs.SumNS)
		}
		phaseSum += hs.SumNS
	}
	if phaseSum > e2e.SumNS {
		t.Errorf("phase totals %dns exceed end-to-end commit total %dns", phaseSum, e2e.SumNS)
	}
	if lg, eq := s.Hists[metrics.HistPhaseLinger].SumNS, s.Hists[metrics.HistPhaseEnqueueWait].SumNS; lg > eq {
		t.Errorf("linger total %dns exceeds enqueue-wait total %dns", lg, eq)
	}
	// Batch-shared stages observe once per batch: never more
	// observations than commits.
	for _, h := range []metrics.Hist{metrics.HistPhaseAppend, metrics.HistPhaseFsync, metrics.HistPhasePublish, metrics.HistPhaseLinger} {
		if n := s.Hists[h].Count; n > e2e.Count {
			t.Errorf("batch stage %v observed %d times for %d commits", h, n, e2e.Count)
		}
	}
}

// TestHealthzWriterStallDegradesAndRecovers is the watchdog contract: an
// injected WAL-writer stall (faultpoint wal.writerstall) must flip
// /healthz to non-ok within one check interval, and /healthz must
// recover once the stall clears.
func TestHealthzWriterStallDegradesAndRecovers(t *testing.T) {
	srv, _, _, _ := durableTCP(t)
	defer faultpoint.Reset()

	const stallAfter = 40 * time.Millisecond
	const interval = 20 * time.Millisecond
	wd := health.New(interval, srv.HealthChecks(stallAfter)...)

	scrape := func() (int, string) {
		rr := httptest.NewRecorder()
		wd.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rr.Code, rr.Body.String()
	}

	if code, body := scrape(); code != http.StatusOK {
		t.Fatalf("healthy server: /healthz = %d, body %s", code, body)
	}

	// Stall the log writer long enough to cross the stall horizon, and
	// commit in the background so the writer is actually busy.
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALWriterStall, Delay: 300 * time.Millisecond, Times: 1})
	done := make(chan error, 1)
	go func() {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		if _, err := c.BeginTx(); err != nil {
			done <- err
			return
		}
		if _, _, err := c.Allocate(1, []byte("stalled-commit")); err != nil {
			done <- err
			return
		}
		done <- c.CommitTx()
	}()

	// The stall becomes reportable once the busy flush outlives the
	// horizon. Every scrape re-runs stale checks, so polling at the
	// check interval must observe the degradation within one interval
	// of that point — well before the 300ms stall ends.
	deadline := time.Now().Add(stallAfter + 4*interval)
	degraded := false
	for time.Now().Before(deadline) {
		if code, _ := scrape(); code == http.StatusServiceUnavailable {
			degraded = true
			break
		}
		time.Sleep(interval / 2)
	}
	if !degraded {
		t.Fatal("/healthz never left ok during a stalled WAL writer")
	}

	if err := <-done; err != nil {
		t.Fatalf("stalled commit failed: %v", err)
	}
	// Recovery: with the stall over and the commit durable, the next
	// fresh round must be ok again.
	recoverDeadline := time.Now().Add(2 * time.Second)
	for {
		code, body := scrape()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("/healthz stuck unhealthy after the stall cleared: %s", body)
		}
		time.Sleep(interval)
	}
}

// TestSlowLogCapturesCommitPhases arms a slow-op log with a threshold of
// 1ns (everything is slow) and checks that a durable TCP commit lands in
// it with its phase breakdown, and that a read RPC lands without one.
func TestSlowLogCapturesCommitPhases(t *testing.T) {
	srv, _, reg, _ := durableTCP(t)
	reg.SetSlowLog(metrics.NewSlowLog(time.Nanosecond, 16, nil))

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Allocate(1, []byte("slow-entry")); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NumPages(1); err != nil {
		t.Fatal(err)
	}

	entries := reg.Slow().Entries()
	var commit, read *metrics.SlowEntry
	for i := range entries {
		switch entries[i].Op {
		case metrics.RPCTxCommit.String():
			commit = &entries[i]
		case metrics.RPCNumPages.String():
			read = &entries[i]
		}
	}
	if commit == nil {
		t.Fatalf("no tx_commit slow entry; got %+v", entries)
	}
	if commit.Phases == nil {
		t.Fatal("commit slow entry carries no phase breakdown")
	}
	if commit.Phases.BatchSize < 1 {
		t.Errorf("commit slow entry batch size = %d", commit.Phases.BatchSize)
	}
	if commit.Phases.FsyncNS <= 0 {
		t.Errorf("commit slow entry fsync phase = %dns", commit.Phases.FsyncNS)
	}
	if commit.DurNS < commit.Phases.AppendNS+commit.Phases.FsyncNS {
		t.Errorf("commit duration %dns below its append+fsync phases", commit.DurNS)
	}
	if read == nil {
		t.Fatalf("no num_pages slow entry; got %+v", entries)
	}
	if read.Phases != nil {
		t.Error("read slow entry unexpectedly carries commit phases")
	}
	// Exactly one entry per commit: the CommitCtx record, not a second
	// one from the generic RPC hook.
	commits := 0
	for _, e := range entries {
		if e.Op == metrics.RPCTxCommit.String() {
			commits++
		}
	}
	if commits != 1 {
		t.Errorf("%d slow entries for one commit, want 1", commits)
	}
}

// TestDebugEndpointsServeObservability boots the full debug endpoint and
// checks the new surfaces end to end over HTTP: /debug/slow serves the
// slow-log JSON shape and /healthz serves the watchdog verdict.
func TestDebugEndpointsServeObservability(t *testing.T) {
	srv, _, reg, _ := durableTCP(t)
	reg.SetSlowLog(metrics.NewSlowLog(time.Nanosecond, 16, nil))
	addr, err := srv.StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Allocate(1, []byte("debug-endpoints")); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTx(); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != http.StatusOK ||
		!strings.Contains(body, `"wal_writer"`) || !strings.Contains(body, `"status"`) {
		t.Errorf("/healthz = %d, body %s", code, body)
	}
	if code, body := get("/debug/slow"); code != http.StatusOK ||
		!strings.Contains(body, `"threshold_ns"`) || !strings.Contains(body, `"tx_commit"`) ||
		!strings.Contains(body, `"fsync_ns"`) {
		t.Errorf("/debug/slow = %d, body %s", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "wal_phase_fsync") {
		t.Errorf("/metrics = %d, missing phase histograms; body %d bytes", code, len(body))
	}
}
