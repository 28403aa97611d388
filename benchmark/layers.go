package main

import (
	"runtime"
	"time"

	"gom/internal/metrics"
)

// metricDef names one reported number. BENCHMARK.json lists the same names
// (metrics_test.go keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// The end-to-end metrics. Every workload reports all of them; which
// transaction is "primary" and "secondary" is fixed per workload:
//
// (the primary and secondary selectors in workloads.go)
//
//	hot_traverse           EDS depth-7 traversal      NOS depth-7 traversal
//	shift_traverse         depth-4 traversal          the same, first 20 after a jump
//	write_beside_snapshot  update (durable commit)    snapshot read
//	oo1_mix                lookup transaction         depth-4 traversal
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"primary_p50_us", "us", "lower"},
	{"secondary_p50_us", "us", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kindSel selects which operations of which segment a statistic is taken
// over.
type kindSel struct {
	seg       int // index into the window's segments
	kind      opKind
	postShift bool // only the operations right after a locality jump
}

// latencies returns the successful operations' latencies (µs) matching
// sel, grouped into the segment's noise-control slices.
func (s *segResult) latencies(sel kindSel) [][]float64 {
	n := s.seg.slices
	out := make([][]float64, n)
	width := s.elapsed / time.Duration(n)
	for _, ops := range s.lanes {
		for i := range ops {
			o := &ops[i]
			if o.kind != sel.kind || o.failed || (sel.postShift && !o.postShift) {
				continue
			}
			k := min(int(o.at/width), n-1)
			out[k] = append(out[k], us(o.latency))
		}
	}
	return out
}

func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	return all
}

// p50 is the gating latency statistic: the quiet quartile (see quietLow) of
// the per-slice medians. The post-shift selector instead takes the mean of
// each jump's first operations (the transient from cold to resident is the
// point) and the quiet quartile across jumps; with no jump in the window it
// falls back to the plain statistic so the metric is never zero.
func (s *segResult) p50(sel kindSel) float64 {
	if sel.postShift {
		var perJump []float64
		var cur []float64
		for _, ops := range s.lanes {
			for i := range ops {
				o := &ops[i]
				if o.kind == sel.kind && o.postShift && !o.failed {
					cur = append(cur, us(o.latency))
					continue
				}
				if len(cur) > 0 {
					perJump = append(perJump, mean(cur))
					cur = nil
				}
			}
		}
		if len(cur) > 0 {
			perJump = append(perJump, mean(cur))
		}
		if len(perJump) > 0 {
			return quietLow(perJump)
		}
		sel.postShift = false
	}
	return quietLow(perSlice(s.latencies(sel), median))
}

func (w *windowResult) p50(sel kindSel) float64 { return w.segs[sel.seg].p50(sel) }

func (s *segResult) p99(sel kindSel) float64 { return percentile(flatten(s.latencies(sel)), 0.99) }

// totals over a window.
type totals struct {
	attempted, failed, wrong int
	done                     int // attempted − failed
	elapsed                  time.Duration
}

func (w *windowResult) totals() totals {
	var t totals
	w.each(func(_ *segResult, _ int, r *opResult) {
		t.attempted++
		switch {
		case r.failed:
			t.failed++
		case r.wrong:
			t.wrong++
		}
	})
	t.done = t.attempted - t.failed
	for _, s := range w.segs {
		t.elapsed += s.elapsed
	}
	return t
}

// opsPerSecond is the window's throughput: committed transactions of all
// clients per second, per slice, and the quiet quartile over the slices of
// all segments, like the latencies.
func (w *windowResult) opsPerSecond() float64 {
	var rates []float64
	for _, s := range w.segs {
		n := s.seg.slices
		width := s.elapsed / time.Duration(n)
		counts := make([]float64, n)
		for _, ops := range s.lanes {
			for i := range ops {
				if !ops[i].failed {
					counts[min(int(ops[i].at/width), n-1)]++
				}
			}
		}
		for _, c := range counts {
			rates = append(rates, c/width.Seconds())
		}
	}
	return quietHigh(rates)
}

// endToEndMetrics computes the gating numbers of an untraced window.
func endToEndMetrics(wl *workload, w *windowResult, setup time.Duration, liveHeap uint64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setup.Seconds(),
		"primary_p50_us":   w.p50(wl.primary),
		"secondary_p50_us": w.p50(wl.secondary),
		"ops_per_s":        w.opsPerSecond(),
		"live_heap_mb":     float64(liveHeap) / (1 << 20),
	}
}

// visitsOf counts the part visits of a segment's successful operations
// and the body time they took.
func (s *segResult) visitsOf() (visits int, body time.Duration) {
	for _, ops := range s.lanes {
		for i := range ops {
			if o := &ops[i]; !o.failed && o.visits > 0 {
				visits += o.visits
				body += o.phase[phBody]
			}
		}
	}
	return visits, body
}

func sumCounter(snaps []metrics.Snapshot, c metrics.Counter) float64 {
	var n int64
	for i := range snaps {
		n += snaps[i].Count(c)
	}
	return float64(n)
}

func histMeanUS(h metrics.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNS) / float64(h.Count) / 1e3
}

// perLayer lists the per-layer metrics in reporting order. Every workload
// reports all of them, 0 where a layer is not on its path.
var perLayer = []metricDef{
	{"phase.tx_begin_us", "us", "lower"},
	{"phase.begin_app_us", "us", "lower"},
	{"phase.body_us", "us", "lower"},
	{"phase.om_commit_us", "us", "lower"},
	{"phase.tx_commit_us", "us", "lower"},
	{"phase.reconcile_ratio", "ratio", "higher"},

	{"core.self_us_per_op", "us", "lower"},
	{"core.visit_ns", "ns", "lower"},
	{"core.nos_gap", "ratio", "higher"},
	{"core.om_commit_us", "us", "lower"},
	{"core.object_faults_per_op", "count", "lower"},
	{"core.displacements_per_op", "count", "lower"},
	{"core.swizzles_per_op", "count", "lower"},
	{"core.unswizzles_per_op", "count", "lower"},
	{"core.allocs_per_visit", "count", "lower"},

	{"rot.lookups_per_visit", "count", "lower"},
	{"rot.resident_objects", "count", "lower"},

	{"buffer.hit_ratio", "ratio", "higher"},
	{"buffer.page_faults_per_op", "count", "lower"},
	{"buffer.evictions_per_op", "count", "lower"},
	{"buffer.stale_refresh_per_op", "count", "lower"},

	{"rpc.calls_per_op", "count", "lower"},
	{"rpc.bytes_per_op", "B", "lower"},
	{"rpc.client_us.lookup", "us", "lower"},
	{"rpc.client_us.read_page", "us", "lower"},
	{"rpc.client_us.write_page", "us", "lower"},
	{"rpc.client_us.tx_begin", "us", "lower"},
	{"rpc.client_us.tx_commit", "us", "lower"},
	{"rpc.wire_us.lookup", "us", "lower"},
	{"rpc.wire_us.read_page", "us", "lower"},
	{"rpc.wire_us.write_page", "us", "lower"},
	{"rpc.wire_us.tx_begin", "us", "lower"},
	{"rpc.wire_us.tx_commit", "us", "lower"},
	{"rpc.retries", "count", "lower"},
	{"rpc.errors", "count", "lower"},

	{"server.handler_us.lookup", "us", "lower"},
	{"server.handler_us.read_page", "us", "lower"},
	{"server.handler_us.write_page", "us", "lower"},
	{"server.handler_us.tx_commit", "us", "lower"},
	{"server.zero_copy_hits_per_read", "ratio", "higher"},
	{"server.lock_timeouts", "count", "lower"},
	{"server.disk_page_reads_per_op", "count", "lower"},

	{"wal.bytes_per_commit", "B", "lower"},
	{"wal.fsyncs_per_commit", "ratio", "lower"},
	{"wal.batch_size_mean", "count", "higher"},
	{"wal.phase_us.enqueue_wait", "us", "lower"},
	{"wal.phase_us.linger", "us", "lower"},
	{"wal.phase_us.append", "us", "lower"},
	{"wal.phase_us.fsync", "us", "lower"},
	{"wal.phase_us.publish", "us", "lower"},
	{"wal.phase_us.lock_release", "us", "lower"},
	{"wal.commit_e2e_us", "us", "lower"},
	{"wal.commits", "count", "higher"},
	{"versions.published_per_commit", "count", "lower"},
	{"versions.retired_per_commit", "count", "lower"},
	{"versions.peak_bytes", "B", "lower"},
	{"versions.snapshot_reads_per_op", "count", "lower"},

	{"coherence.registrations_per_op", "count", "lower"},
	{"coherence.inval_per_commit", "count", "lower"},
	{"coherence.ack_wait_us", "us", "lower"},
	{"coherence.applied_pages_per_inval", "count", "lower"},
	{"coherence.ack_timeouts", "count", "lower"},
	{"coherence.lease_expired", "count", "lower"},
	{"coherence.push_dropped", "count", "lower"},

	{"runtime.cpu_us_per_op", "us", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.gc_cpu_pct", "%", "lower"},

	{"tail.traversal_p99_ms", "ms", "lower"},
	{"tail.lookup_p99_us", "us", "lower"},
	{"tail.update_p99_us", "us", "lower"},
	{"tail.snapshot_lookup_p99_us", "us", "lower"},

	{"trace.overhead_pct", "%", "lower"},

	// The issue's workload-specific end-to-end names, from the untraced
	// part of the traced invocation; 0 where the workload has no such
	// operation. They cannot gate (a gating metric must exist on every
	// workload), the generic end-to-end metrics above gate in their place.
	{"e2e.hot_visit_ns_swz", "ns", "lower"},
	{"e2e.hot_visit_ns_nos", "ns", "lower"},
	{"e2e.visits_per_s", "1/s", "higher"},
	{"e2e.traversal_p50_ms", "ms", "lower"},
	{"e2e.lookup_p50_us", "us", "lower"},
	{"e2e.update_p50_us", "us", "lower"},
	{"e2e.updates_per_s", "1/s", "higher"},
	{"e2e.snapshot_lookup_p50_us", "us", "lower"},
	{"e2e.fail_share", "ratio", "lower"},
}

// layerMetrics derives the per-layer budget from a traced window on st;
// base is the untraced window of the same length on an identical system.
func layerMetrics(st *stack, base, traced *windowResult) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	s := traced.segs[0]
	t := traced.totals()

	// phase.*: mean per transaction, all kinds and clients.
	var phase [numPhases]time.Duration
	var sum, latency time.Duration
	var ops float64 // successful transactions of the segment, all clients
	traced.each(func(seg *segResult, _ int, r *opResult) {
		if seg != s || r.failed {
			return
		}
		ops++
		for i, d := range r.phase {
			phase[i] += d
		}
		latency += r.latency
	})
	for i, d := range phase {
		m["phase."+phaseNames[i]+"_us"] = div(us(d), ops)
		sum += d
	}
	m["phase.reconcile_ratio"] = div(float64(sum), float64(latency))

	// core.*
	nested := s.rpcNS[rpcLookup] + s.rpcNS[rpcReadPage] + s.rpcNS[rpcWritePage] + s.rpcNS[rpcOther]
	m["core.self_us_per_op"] = div(us(phase[phBody]+phase[phOMCommit])-float64(nested)/1e3, ops)
	m["core.om_commit_us"] = m["phase.om_commit_us"]
	visits, body := s.visitsOf()
	m["core.visit_ns"] = div(float64(body), float64(visits))
	rotSeg := s
	if len(traced.segs) > 1 { // hot_traverse: the NOS half
		rotSeg = traced.segs[1]
		nv, nb := rotSeg.visitsOf()
		m["core.nos_gap"] = div(div(float64(nb), float64(nv)), m["core.visit_ns"])
	}
	cl := s.clients
	m["core.object_faults_per_op"] = div(sumCounter(cl, metrics.CtrObjectFault), ops)
	m["core.displacements_per_op"] = div(sumCounter(cl, metrics.CtrDisplacement), ops)
	m["core.swizzles_per_op"] = div(sumCounter(cl, metrics.CtrSwizzleEDS)+sumCounter(cl, metrics.CtrSwizzleEIS)+
		sumCounter(cl, metrics.CtrSwizzleLDS)+sumCounter(cl, metrics.CtrSwizzleLIS), ops)
	m["core.unswizzles_per_op"] = div(sumCounter(cl, metrics.CtrUnswizzle), ops)
	m["core.allocs_per_visit"] = div(float64(s.use.mallocs), float64(visits))

	// rot.*
	rv, _ := rotSeg.visitsOf()
	m["rot.lookups_per_visit"] = div(sumCounter(rotSeg.clients, metrics.CtrROTLookup), float64(rv))
	for _, c := range st.clients {
		m["rot.resident_objects"] += float64(c.om.Resident())
	}

	// buffer.*
	hits, misses := sumCounter(cl, metrics.CtrBufferHit), sumCounter(cl, metrics.CtrBufferMiss)
	m["buffer.hit_ratio"] = div(hits, hits+misses)
	m["buffer.page_faults_per_op"] = div(sumCounter(cl, metrics.CtrPageFault), ops)
	m["buffer.evictions_per_op"] = div(sumCounter(cl, metrics.CtrBufferEvict), ops)
	m["buffer.stale_refresh_per_op"] = div(sumCounter(cl, metrics.CtrBufferStaleRefresh), ops)

	// rpc.* and server.*: client-observed minus server handler time is
	// what framing, syscalls, goroutine hand-offs and loopback cost.
	var calls, bytes int64
	for k := range s.rpcN {
		calls += s.rpcN[k]
	}
	for i := range cl {
		for d := 0; d < 2; d++ {
			for _, b := range cl[i].RPCBytes[d] {
				bytes += b
			}
		}
	}
	m["rpc.calls_per_op"] = div(float64(calls), ops)
	m["rpc.bytes_per_op"] = div(float64(bytes), ops)
	srv := s.server
	begin := srv.RPC[metrics.RPCTxBegin]
	begin.Count += srv.RPC[metrics.RPCTxBeginSnapshot].Count
	begin.SumNS += srv.RPC[metrics.RPCTxBeginSnapshot].SumNS
	handler := [numRPCKinds]metrics.HistSnapshot{
		rpcLookup:    srv.RPC[metrics.RPCLookup],
		rpcReadPage:  srv.RPC[metrics.RPCReadPage],
		rpcWritePage: srv.RPC[metrics.RPCWritePage],
		rpcTxBegin:   begin,
		rpcTxCommit:  srv.RPC[metrics.RPCTxCommit],
	}
	for k := rpcLookup; k < rpcOther; k++ {
		client := div(float64(s.rpcNS[k])/1e3, float64(s.rpcN[k]))
		m["rpc.client_us."+rpcKindNames[k]] = client
		if s.rpcN[k] > 0 {
			m["rpc.wire_us."+rpcKindNames[k]] = client - histMeanUS(handler[k])
		}
		if k != rpcTxBegin {
			m["server.handler_us."+rpcKindNames[k]] = histMeanUS(handler[k])
		}
	}
	m["rpc.retries"] = sumCounter(cl, metrics.CtrRPCRetry)
	m["rpc.errors"] = float64(srv.Count(metrics.CtrRPCError))
	reads := float64(srv.Count(metrics.CtrDiskPageRead))
	m["server.zero_copy_hits_per_read"] = div(float64(srv.Count(metrics.CtrPageZeroCopyHit)), reads)
	m["server.lock_timeouts"] = float64(t.failed)
	m["server.disk_page_reads_per_op"] = div(reads, ops)

	// wal.* / versions.*
	commits := float64(srv.Count(metrics.CtrWALCommit))
	m["wal.commits"] = commits
	m["wal.bytes_per_commit"] = div(float64(srv.Count(metrics.CtrWALAppendBytes)), commits)
	m["wal.fsyncs_per_commit"] = div(float64(srv.Count(metrics.CtrWALFsync)), commits)
	if b := srv.Hists[metrics.HistWALBatchSize]; b.Count > 0 {
		m["wal.batch_size_mean"] = float64(b.SumNS) / float64(b.Count) // a count histogram: the sum is of batch sizes
	}
	for name, h := range map[string]metrics.Hist{
		"enqueue_wait": metrics.HistPhaseEnqueueWait, "linger": metrics.HistPhaseLinger,
		"append": metrics.HistPhaseAppend, "fsync": metrics.HistPhaseFsync,
		"publish": metrics.HistPhasePublish, "lock_release": metrics.HistPhaseLockRelease,
	} {
		m["wal.phase_us."+name] = histMeanUS(srv.Hists[h])
	}
	m["wal.commit_e2e_us"] = histMeanUS(srv.Hists[metrics.HistCommitE2E])
	m["versions.published_per_commit"] = div(float64(srv.Count(metrics.CtrVersionPublish)), commits)
	m["versions.retired_per_commit"] = div(float64(srv.Count(metrics.CtrVersionRetire)), commits)
	m["versions.peak_bytes"] = float64(srv.GaugePeaks[metrics.GaugeVersionBytes])
	m["versions.snapshot_reads_per_op"] = div(float64(srv.Count(metrics.CtrSnapshotRead)), float64(srv.Count(metrics.CtrSnapshotBegin)))

	// coherence.*: ack wait is the server's own timing of a push round
	// (send to the last ack), which is what a writer's commit waits for.
	m["coherence.registrations_per_op"] = div(float64(srv.Count(metrics.CtrCoherenceRegister)), ops)
	m["coherence.inval_per_commit"] = div(float64(srv.Count(metrics.CtrCoherenceInvalSent)), commits)
	m["coherence.ack_wait_us"] = histMeanUS(srv.RPC[metrics.RPCInvalidate])
	m["coherence.applied_pages_per_inval"] = div(sumCounter(cl, metrics.CtrCoherenceInvalApplied), sumCounter(cl, metrics.CtrCoherenceInvalRecv))
	m["coherence.ack_timeouts"] = float64(srv.Count(metrics.CtrCoherenceAckTimeout))
	m["coherence.lease_expired"] = sumCounter(cl, metrics.CtrCoherenceLeaseExpired)
	m["coherence.push_dropped"] = float64(srv.Count(metrics.CtrCoherencePushDropped))

	// runtime.*
	m["runtime.cpu_us_per_op"] = div(us(s.use.cpu), ops)
	m["runtime.alloc_mb_per_s"] = div(float64(s.use.allocBytes)/(1<<20), s.elapsed.Seconds())
	m["runtime.gc_pause_ms"] = float64(s.use.gcPause) / 1e6
	m["runtime.gc_cpu_pct"] = 100 * div(s.use.gcCPU, s.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0)))

	// tail.*: reported, never gating.
	of := func(k opKind) kindSel { return kindSel{kind: k} }
	m["tail.traversal_p99_ms"] = s.p99(of(kindTraverse)) / 1e3
	m["tail.lookup_p99_us"] = s.p99(of(kindLookup))
	m["tail.update_p99_us"] = s.p99(of(kindUpdate))
	m["tail.snapshot_lookup_p99_us"] = s.p99(of(kindSnapRead))

	// trace.overhead_pct: throughput lost against the untraced window.
	m["trace.overhead_pct"] = 100 * (div(base.opsPerSecond(), traced.opsPerSecond()) - 1)

	// e2e.*: the issue's names, from the untraced window.
	b := base.segs[0]
	bt := base.totals()
	perVisit := func(s *segResult) float64 {
		v, _ := s.visitsOf()
		return div(float64(s.elapsed), float64(v))
	}
	if len(base.segs) > 1 { // hot_traverse: EDS then NOS
		m["e2e.hot_visit_ns_swz"] = perVisit(b)
		m["e2e.hot_visit_ns_nos"] = perVisit(base.segs[1])
	}
	bv, _ := b.visitsOf()
	m["e2e.visits_per_s"] = div(float64(bv), b.elapsed.Seconds())
	m["e2e.updates_per_s"] = div(float64(len(flatten(b.latencies(of(kindUpdate))))), b.elapsed.Seconds())
	m["e2e.traversal_p50_ms"] = b.p50(of(kindTraverse)) / 1e3
	m["e2e.lookup_p50_us"] = b.p50(of(kindLookup))
	m["e2e.update_p50_us"] = b.p50(of(kindUpdate))
	m["e2e.snapshot_lookup_p50_us"] = b.p50(of(kindSnapRead))
	m["e2e.fail_share"] = div(float64(bt.failed+bt.wrong), float64(bt.attempted))
	return m
}
