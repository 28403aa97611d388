// Package metrics is the always-on observability layer of the
// reproduction: a small, dependency-free registry of atomic counters and
// fixed-bucket latency histograms.
//
// It is deliberately distinct from two neighbouring facilities:
//
//   - internal/sim.Meter charges *simulated 1993 microseconds* so
//     experiments reproduce the paper's numbers deterministically; it is a
//     cost model, not a monitor, and it is per-client and single-threaded.
//   - internal/monitor implements the paper's §7 training-mode tracer: it
//     records per-object access traces under no-swizzling to feed the
//     strategy-selection pipeline, and is far too heavy to leave enabled.
//
// The registry here is what a production deployment watches: real event
// counts (faults, swizzles, displacements, buffer hits, disk I/O) and real
// wall-clock RPC latencies, safe for concurrent use, cheap enough to stay
// on permanently. Every hook in the hot paths is nil-safe — calling any
// method on a nil *Registry is a no-op — so the layers instrument
// unconditionally and pay a single predictable branch when no registry is
// installed (the deref hot path stays at 0 allocs/op; see
// BenchmarkDerefNoMetrics).
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Counter enumerates the named events the observability layer records.
// Keep counterNames in sync.
type Counter int

// The counters. Swizzles are labelled by strategy (NOS never swizzles);
// everything else is a plain event count.
const (
	CtrPageFault Counter = iota
	CtrObjectFault
	CtrROTLookup
	CtrDescriptorIndirection
	CtrDisplacement
	CtrUnswizzle
	CtrSwizzleEDS
	CtrSwizzleEIS
	CtrSwizzleLDS
	CtrSwizzleLIS
	CtrBufferHit
	CtrBufferMiss
	CtrBufferEvict
	CtrDiskPageRead
	CtrDiskPageWrite
	CtrDiskPageAlloc
	CtrRead
	CtrWrite
	CtrPagewiseScan
	CtrRPCError
	CtrBatchLookup
	CtrBatchLookupOIDs
	CtrReadRun
	CtrReadRunPages
	CtrWALAppend
	CtrWALAppendBytes
	CtrWALFsync
	CtrWALCommit
	CtrWALCheckpoint
	CtrWALReplayRecords
	CtrWALReplayTornBytes
	CtrRPCRetry
	CtrWALGroupBatch
	CtrTxReadOnlyCommit
	CtrSnapshotBegin
	CtrSnapshotRead
	CtrVersionPublish
	CtrVersionRetire
	// CtrBufferStaleRefresh counted in-place re-reads of frames older than
	// the pool's read epoch. The epoch is gone (a snapshot begin says what
	// changed instead — DESIGN.md "Snapshot begin is a validation point"),
	// nothing increments this, and it reads 0; it stays declared because the
	// benchmark's buffer.stale_refresh_per_op row is computed from it.
	CtrBufferStaleRefresh
	CtrDiskReadBytes
	CtrPageZeroCopyHit
	CtrVersionCapRefusal
	// Coherence counters (callback/lease cache coherence, DESIGN.md
	// "Cache coherence"). Registered / revoked / invalidated count
	// server-side interest-table traffic; sent / received / applied /
	// acked follow one invalidation callback end to end; timeouts and
	// lease expiries count the protocol's degraded paths.
	CtrCoherenceRegister
	CtrCoherenceRevoked
	CtrCoherenceInvalSent
	CtrCoherenceInvalRecv
	CtrCoherenceInvalApplied
	CtrCoherenceAcked
	CtrCoherenceAckTimeout
	CtrCoherencePushDropped
	CtrCoherenceLeaseExpired
	// Page directories (DESIGN.md "Page directories"). An object fault is
	// resolved locally when a buffered page's directory names the object,
	// and by RPC when the address came from the server (a Lookup, or a
	// batched-lookup hint); the server counts the extents it ships with
	// page reads, and the snapshot page reads that shipped the image without
	// its directory because the directory names an object whose POT mapping
	// changed after the read point (the snapshot-consistency rule).
	CtrObjectFaultLocal
	CtrObjectFaultRPC
	CtrPageDirExtents
	CtrSnapshotDirWithheld
	// Fewer round trips (DESIGN.md "Page-server wire protocol"), all
	// client-side: pages that arrived behind a Lookup answer and were
	// staged, staged pages a ReadPage took instead of a round trip (the
	// difference was dropped: invalidated, lease-expired, outlived its
	// transaction), and transactions that ended without a frame because
	// their begin was still deferred.
	CtrLookupPageStaged
	CtrLookupPageTaken
	CtrTxSilent
	// Snapshot begin as a validation point (DESIGN.md "Cache coherence"),
	// client-side: snapshot begins whose answer listed the pages changed
	// since the previous read point, the pages those lists named, and
	// begins the server could not answer with a list (no previous read
	// point, or one older than its change log), after which the client
	// drops its whole cache.
	CtrCoherenceBeginList
	CtrCoherenceBeginPages
	CtrCoherenceBeginAll
	NumCounters
)

var counterNames = [NumCounters]string{
	"page_fault",
	"object_fault",
	"rot_lookup",
	"descriptor_indirection",
	"displacement",
	"unswizzle",
	"swizzle{EDS}",
	"swizzle{EIS}",
	"swizzle{LDS}",
	"swizzle{LIS}",
	"buffer_hit",
	"buffer_miss",
	"buffer_evict",
	"disk_page_read",
	"disk_page_write",
	"disk_page_alloc",
	"read",
	"write",
	"pagewise_scan",
	"server_rpc_error",
	"batch_lookup",
	"batch_lookup_oids",
	"read_run",
	"read_run_pages",
	"wal_append",
	"wal_append_bytes",
	"wal_fsync",
	"wal_commit",
	"wal_checkpoint",
	"wal_replay_records",
	"wal_replay_torn_bytes",
	"rpc_retry",
	"wal_group_batch",
	"tx_readonly_commit",
	"snapshot_begin",
	"snapshot_read_lockfree",
	"version_published",
	"version_retired",
	"buffer_stale_refresh",
	"disk_read_bytes",
	"page_zero_copy_hits",
	"version_store_cap_refusals",
	"coherence_interest_register",
	"coherence_interest_revoked",
	"coherence_invalidations_sent",
	"coherence_invalidations_received",
	"coherence_invalidations_applied",
	"coherence_invalidations_acked",
	"coherence_ack_timeouts",
	"coherence_push_dropped",
	"coherence_lease_expired",
	"object_fault_resolved_local",
	"object_fault_resolved_rpc",
	"page_dir_extents",
	"snapshot_dir_withheld",
	"lookup_page_staged",
	"lookup_page_taken",
	"tx_silent",
	"coherence_begin_lists",
	"coherence_begin_pages",
	"coherence_begin_whole_cache",
}

// String returns the counter's snake_case event name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// RPCOp enumerates the server operations whose latencies are recorded, one
// histogram each (server_rpc{op}). Keep rpcNames in sync.
type RPCOp int

// The RPC operations, mirroring the Server interface plus the
// transactional extension of the TCP protocol.
const (
	RPCLookup RPCOp = iota
	RPCReadPage
	RPCWritePage
	RPCAllocate
	RPCAllocateNear
	RPCUpdateObject
	RPCNumPages
	RPCTxBegin
	RPCTxCommit
	RPCTxAbort
	RPCHello
	RPCLookupBatch
	RPCReadPages
	RPCTxBeginSnapshot
	// RPCInvalidate is the server->client coherence push; RPCCoherenceAck
	// is the client's fire-and-forget acknowledgement.
	RPCInvalidate
	RPCCoherenceAck
	NumRPCOps
)

var rpcNames = [NumRPCOps]string{
	"lookup",
	"read_page",
	"write_page",
	"allocate",
	"allocate_near",
	"update_object",
	"num_pages",
	"tx_begin",
	"tx_commit",
	"tx_abort",
	"hello",
	"lookup_batch",
	"read_pages",
	"tx_begin_snapshot",
	"invalidate",
	"coherence_ack",
}

// String returns the op's snake_case name.
func (op RPCOp) String() string {
	if op < 0 || op >= NumRPCOps {
		return fmt.Sprintf("rpc(%d)", int(op))
	}
	return rpcNames[op]
}

// Gauge enumerates the instantaneous levels the observability layer
// tracks (counters only go up; gauges go up and down). Keep gaugeNames in
// sync.
type Gauge int

// The gauges.
const (
	// GaugeInFlightRPC is the number of data requests the server is
	// running, across all connections (at most one per connection).
	GaugeInFlightRPC Gauge = iota
	// GaugeVersionPages is the number of page before-images (staged plus
	// published) retained by the MVCC version store.
	GaugeVersionPages
	// GaugeVersionBytes is the approximate heap footprint of those retained
	// before-images.
	GaugeVersionBytes
	// GaugeSnapshotLag is the distance, in commit LSNs, between the current
	// stable point and the oldest active snapshot's read-LSN — how far
	// behind the slowest snapshot reader is dragging the retirement
	// watermark.
	GaugeSnapshotLag
	// GaugeCoherenceInterest is the number of (page, client) interest
	// registrations the server's coherence table currently retains.
	GaugeCoherenceInterest
	// GaugeCoherenceQueue is the length of the interest table's eviction
	// FIFO: live registrations plus the stale entries re-registration
	// leaves behind until the next compaction (at most as many again).
	GaugeCoherenceQueue
	// GaugeCoherenceChangeLog is the number of writes the server's change
	// log holds (it stops growing at its fixed capacity): how far back a
	// snapshot begin can be told what changed.
	GaugeCoherenceChangeLog
	NumGauges
)

var gaugeNames = [NumGauges]string{
	"inflight_rpcs",
	"version_store_pages",
	"version_store_bytes",
	"snapshot_lag",
	"coherence_interest_entries",
	"coherence_interest_queue",
	"coherence_change_log_entries",
}

// String returns the gauge's snake_case name.
func (g Gauge) String() string {
	if g < 0 || g >= NumGauges {
		return fmt.Sprintf("gauge(%d)", int(g))
	}
	return gaugeNames[g]
}

// Hist enumerates the general-purpose value histograms the registry
// keeps, beyond the per-op RPC latency family. Each has a fixed unit so
// the expositions can label it. Keep histNames/histUnits in sync.
type Hist int

// The histograms.
const (
	// HistWALBatchSize records how many commit records each group-commit
	// flush carried (unit: commits, not nanoseconds).
	HistWALBatchSize Hist = iota
	// HistWALFlushLatency records the wall-clock duration of one
	// group-commit flush: batch append plus the shared fsync.
	HistWALFlushLatency
	// The wal_phase_* family decomposes every durable commit into the
	// named stages of the transaction pipeline (the flight recorder).
	// Enqueue wait and lock release are observed once per commit; linger,
	// append, fsync and publish are observed once per flushed batch, so
	// summed phase time stays below summed end-to-end commit time (a batch
	// amortizes its flush across every member).
	//
	// HistPhaseEnqueueWait is the time a commit spent queued before its
	// batch's flush began (near zero on the inline lone-committer path).
	HistPhaseEnqueueWait
	// HistPhaseLinger is how long the group-commit writer held a batch
	// open gathering cohort members before flushing it.
	HistPhaseLinger
	// HistPhaseAppend covers WAL lock acquisition, commit-frame
	// construction and the buffered write, up to the start of fsync.
	HistPhaseAppend
	// HistPhaseFsync is the shared fsync of the batch.
	HistPhaseFsync
	// HistPhasePublish is the version-store publish (the commit hook) that
	// makes the batch's pages visible to snapshot readers.
	HistPhasePublish
	// HistPhaseLockRelease is the post-durability bookkeeping: undo-log
	// discard and write-lock release under the transaction server's mutex.
	HistPhaseLockRelease
	// HistCommitE2E is the end-to-end durable commit latency as the
	// transaction server saw it, enclosing all of the above.
	HistCommitE2E
	NumHists
)

var histNames = [NumHists]string{
	"wal_batch_size",
	"wal_flush_latency",
	"wal_phase_enqueue_wait",
	"wal_phase_linger",
	"wal_phase_append",
	"wal_phase_fsync",
	"wal_phase_publish",
	"wal_phase_lock_release",
	"commit_e2e_latency",
}

// histDuration reports whether the histogram's values are nanoseconds
// (rendered as seconds in OpenMetrics) rather than plain counts.
var histDuration = [NumHists]bool{false, true, true, true, true, true, true, true, true}

// String returns the histogram's snake_case name.
func (h Hist) String() string {
	if h < 0 || h >= NumHists {
		return fmt.Sprintf("hist(%d)", int(h))
	}
	return histNames[h]
}

// NumHistBuckets is the number of histogram buckets. Bucket i counts
// observations whose duration in nanoseconds has bit-length i, i.e. the
// half-open range [2^(i-1), 2^i) ns (bucket 0 is exactly 0 ns); the last
// bucket absorbs everything longer (~2.1 s and beyond).
const NumHistBuckets = 32

// BucketBound returns the exclusive nanosecond upper bound of bucket i
// (the last bucket is unbounded and reports the maximum duration).
func BucketBound(i int) time.Duration {
	if i >= NumHistBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(int64(1) << i)
}

// Histogram is a fixed power-of-two-bucket latency histogram. The zero
// value is ready for use; all methods are safe for concurrent use.
// Each bucket additionally remembers the trace ID of the last traced
// observation that landed in it (an exemplar), so a histogram tail links
// back to a concrete flight-recorded request.
type Histogram struct {
	count     atomic.Int64
	sum       atomic.Int64 // nanoseconds
	buckets   [NumHistBuckets]atomic.Int64
	exemplars [NumHistBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveN(int64(d))
}

// ObserveN records one raw value (a duration in nanoseconds, or a plain
// count for size histograms — the buckets are powers of two either way).
func (h *Histogram) ObserveN(v int64) {
	h.ObserveTrace(v, 0)
}

// ObserveTrace records one raw value and, when traceID is nonzero, stamps
// it as the bucket's exemplar.
func (h *Histogram) ObserveTrace(v int64, traceID uint64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= NumHistBuckets {
		b = NumHistBuckets - 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[b].Add(1)
	if traceID != 0 {
		h.exemplars[b].Store(traceID)
	}
}

// HistSnapshot is a point-in-time copy of a histogram. Exemplars carry
// each bucket's last traced observation (0 = none); like gauges they are
// levels, not rates, and are carried over (not differenced) by Delta.
type HistSnapshot struct {
	Count     int64
	SumNS     int64
	Buckets   [NumHistBuckets]int64
	Exemplars [NumHistBuckets]uint64
}

func (h *Histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// TailExemplar returns the trace ID stamped on the highest bucket that
// has one — the most recently traced observation in the histogram's tail
// — or 0 when no traced observation was recorded.
func (s HistSnapshot) TailExemplar() uint64 {
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if s.Exemplars[i] != 0 {
			return s.Exemplars[i]
		}
	}
	return 0
}

// Mean returns the mean observed duration, or 0 with no observations.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) from the
// bucket boundaries, or 0 with no observations.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumHistBuckets - 1)
}

// Delta returns the histogram activity since an earlier snapshot.
// Exemplars are carried from the current snapshot, not differenced.
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: s.Count - prev.Count, SumNS: s.SumNS - prev.SumNS}
	for i := range d.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	d.Exemplars = s.Exemplars
	return d
}

// Registry is the event registry one deployment unit (a client object
// manager, a page server) exposes. All methods are safe for concurrent use
// and are no-ops on a nil receiver, so instrumented layers call them
// unconditionally.
type Registry struct {
	start    time.Time
	counters [NumCounters]atomic.Int64
	gauges   [NumGauges]gauge
	rpc      [NumRPCOps]Histogram
	hists    [NumHists]Histogram
	// io counts protocol frames and payload bytes per opcode and
	// direction (0 = received, 1 = sent), maintained by both protocol
	// ends so either side's /metrics attributes wire traffic to ops.
	io     [2][NumRPCOps]ioCount
	scores scoreboard
	drift  atomic.Pointer[DriftSource]
	slow   atomic.Pointer[SlowLog]
}

// ioCount is one (direction, opcode) frame/byte pair.
type ioCount struct {
	frames atomic.Int64
	bytes  atomic.Int64
}

// gauge is an instantaneous level plus the high-water mark it reached.
type gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// add moves the level and maintains the peak.
func (g *gauge) add(delta int64) {
	v := g.cur.Add(delta)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{start: time.Now()}
}

// Inc records one occurrence of the counter.
func (r *Registry) Inc(c Counter) {
	if r == nil {
		return
	}
	r.counters[c].Add(1)
}

// AddN records n occurrences of the counter.
func (r *Registry) AddN(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Count returns the current value of one counter (0 on a nil registry).
func (r *Registry) Count(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// GaugeAdd moves a gauge by delta (negative to decrease), maintaining its
// high-water mark.
func (r *Registry) GaugeAdd(g Gauge, delta int64) {
	if r == nil {
		return
	}
	r.gauges[g].add(delta)
}

// GaugeValue returns a gauge's current level (0 on a nil registry).
func (r *Registry) GaugeValue(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].cur.Load()
}

// GaugePeak returns the highest level a gauge has reached.
func (r *Registry) GaugePeak(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].peak.Load()
}

// RPCFrame records one protocol frame of the given payload size, sent
// (out = true) or received (out = false), attributed to an opcode.
func (r *Registry) RPCFrame(op RPCOp, out bool, bytes int) {
	if r == nil {
		return
	}
	d := 0
	if out {
		d = 1
	}
	c := &r.io[d][op]
	c.frames.Add(1)
	c.bytes.Add(int64(bytes))
}

// RPCIO returns the frame and byte totals for one opcode and direction.
func (r *Registry) RPCIO(op RPCOp, out bool) (frames, bytes int64) {
	if r == nil {
		return 0, 0
	}
	d := 0
	if out {
		d = 1
	}
	c := &r.io[d][op]
	return c.frames.Load(), c.bytes.Load()
}

// ObserveRPC records one server operation latency.
func (r *Registry) ObserveRPC(op RPCOp, d time.Duration) {
	if r == nil {
		return
	}
	r.rpc[op].Observe(d)
}

// ObserveHist records one raw value into a general-purpose histogram
// (nanoseconds for duration histograms, plain counts otherwise).
func (r *Registry) ObserveHist(h Hist, v int64) {
	if r == nil {
		return
	}
	r.hists[h].ObserveN(v)
}

// ObserveHistTrace records one raw value into a general-purpose histogram
// and, when traceID is nonzero, stamps it as the landing bucket's
// exemplar.
func (r *Registry) ObserveHistTrace(h Hist, v int64, traceID uint64) {
	if r == nil {
		return
	}
	r.hists[h].ObserveTrace(v, traceID)
}

// HistSnapshotOf returns a point-in-time copy of one general-purpose
// histogram (zero value on a nil registry).
func (r *Registry) HistSnapshotOf(h Hist) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.hists[h].snapshot()
}

// Now returns the current time, or the zero time on a nil registry — the
// companion of RPCSince, letting callers skip the clock read entirely when
// no registry is installed:
//
//	defer reg.RPCSince(metrics.RPCLookup, reg.Now())
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// RPCSince records the latency of an operation started at start; a zero
// start (from Now on a nil registry) is ignored. It returns the measured
// duration (0 when nothing was recorded) so callers needing the latency
// again — the slow-op gate, say — reuse it instead of paying a second
// clock read.
func (r *Registry) RPCSince(op RPCOp, start time.Time) time.Duration {
	if r == nil || start.IsZero() {
		return 0
	}
	d := time.Since(start)
	r.rpc[op].Observe(d)
	return d
}

// RPCSinceTrace is RPCSince with an exemplar: when traceID is nonzero the
// landing bucket remembers it, linking the latency tail to a trace.
func (r *Registry) RPCSinceTrace(op RPCOp, start time.Time, traceID uint64) time.Duration {
	if r == nil || start.IsZero() {
		return 0
	}
	d := time.Since(start)
	r.rpc[op].ObserveTrace(int64(d), traceID)
	return d
}

// SetSlowLog installs (or, with nil, removes) the slow-operation log.
func (r *Registry) SetSlowLog(l *SlowLog) {
	if r == nil {
		return
	}
	r.slow.Store(l)
}

// Slow returns the installed slow-operation log, nil when none (and on a
// nil registry). A nil *SlowLog is itself safe to use, so callers may
// chain: reg.Slow().Note(...).
func (r *Registry) Slow() *SlowLog {
	if r == nil {
		return nil
	}
	return r.slow.Load()
}

// Snapshot captures every counter and histogram for later diffing. Gauges
// carry their instantaneous level and high-water mark (levels are not
// differenced by Delta — a level at a point in time is not a rate).
type Snapshot struct {
	Counters   [NumCounters]int64
	Gauges     [NumGauges]int64
	GaugePeaks [NumGauges]int64
	RPC        [NumRPCOps]HistSnapshot
	Hists      [NumHists]HistSnapshot
	// RPCFrames and RPCBytes index [direction][op]; direction 0 is
	// received, 1 is sent.
	RPCFrames [2][NumRPCOps]int64
	RPCBytes  [2][NumRPCOps]int64
}

// Snapshot returns the current state (zero value on a nil registry).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for i := range s.Counters {
		s.Counters[i] = r.counters[i].Load()
	}
	for i := range s.Gauges {
		s.Gauges[i] = r.gauges[i].cur.Load()
		s.GaugePeaks[i] = r.gauges[i].peak.Load()
	}
	for i := range s.RPC {
		s.RPC[i] = r.rpc[i].snapshot()
	}
	for i := range s.Hists {
		s.Hists[i] = r.hists[i].snapshot()
	}
	for d := 0; d < 2; d++ {
		for i := range s.RPCFrames[d] {
			s.RPCFrames[d][i] = r.io[d][i].frames.Load()
			s.RPCBytes[d][i] = r.io[d][i].bytes.Load()
		}
	}
	return s
}

// Count returns one counter from the snapshot.
func (s Snapshot) Count(c Counter) int64 { return s.Counters[c] }

// Delta returns the activity between an earlier snapshot and this one.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range d.Counters {
		d.Counters[i] = s.Counters[i] - prev.Counters[i]
	}
	d.Gauges = s.Gauges
	d.GaugePeaks = s.GaugePeaks
	for i := range d.RPC {
		d.RPC[i] = s.RPC[i].Delta(prev.RPC[i])
	}
	for i := range d.Hists {
		d.Hists[i] = s.Hists[i].Delta(prev.Hists[i])
	}
	for dir := 0; dir < 2; dir++ {
		for i := range d.RPCFrames[dir] {
			d.RPCFrames[dir][i] = s.RPCFrames[dir][i] - prev.RPCFrames[dir][i]
			d.RPCBytes[dir][i] = s.RPCBytes[dir][i] - prev.RPCBytes[dir][i]
		}
	}
	return d
}

// Delta returns the activity between two snapshots, cur - prev — the
// package-level spelling of cur.Delta(prev), for callers diffing
// snapshots they did not take themselves.
func Delta(cur, prev Snapshot) Snapshot { return cur.Delta(prev) }

// DeltaSince snapshots the registry and returns the activity since an
// earlier snapshot — the one-call form live monitors want:
//
//	cur, d := reg.DeltaSince(prev)
//	prev = cur
func (r *Registry) DeltaSince(prev Snapshot) (cur, delta Snapshot) {
	cur = r.Snapshot()
	return cur, cur.Delta(prev)
}

// String renders the snapshot's non-zero counters and RPC histograms on
// one line, for live stats output.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, v := range s.Counters {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Counter(i), v)
	}
	for i, h := range s.RPC {
		if h.Count == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "server_rpc{%s}=%d(mean %v)", RPCOp(i), h.Count, h.Mean().Round(time.Microsecond))
	}
	if b.Len() == 0 {
		return "(idle)"
	}
	return b.String()
}

// jsonSnapshot is the wire form of the expvar/HTTP dump.
type jsonSnapshot struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Counters      map[string]int64     `json:"counters"`
	Gauges        map[string]jsonGauge `json:"gauges,omitempty"`
	RPC           map[string]jsonRPC   `json:"rpc"`
	Hists         map[string]jsonRPC   `json:"hists,omitempty"`
	RPCIO         map[string]jsonRPCIO `json:"rpc_io,omitempty"`
	Scoreboard    []ScoreRow           `json:"scoreboard,omitempty"`
	Advisor       []Drift              `json:"advisor,omitempty"`
}

type jsonRPCIO struct {
	InFrames  int64 `json:"in_frames"`
	InBytes   int64 `json:"in_bytes"`
	OutFrames int64 `json:"out_frames"`
	OutBytes  int64 `json:"out_bytes"`
}

type jsonGauge struct {
	Value int64 `json:"value"`
	Peak  int64 `json:"peak"`
}

type jsonRPC struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	// TailTraceID is the exemplar of the highest populated bucket — the
	// trace ID of the last traced observation in the tail, 0 when none.
	TailTraceID uint64 `json:"tail_trace_id,omitempty"`
}

func (r *Registry) jsonValue() jsonSnapshot {
	s := r.Snapshot()
	out := jsonSnapshot{
		Counters: make(map[string]int64, NumCounters),
		RPC:      make(map[string]jsonRPC, NumRPCOps),
	}
	if !r.start.IsZero() {
		out.UptimeSeconds = time.Since(r.start).Seconds()
	}
	for i, v := range s.Counters {
		out.Counters[Counter(i).String()] = v
	}
	for i := range s.Gauges {
		if s.Gauges[i] == 0 && s.GaugePeaks[i] == 0 {
			continue
		}
		if out.Gauges == nil {
			out.Gauges = make(map[string]jsonGauge, NumGauges)
		}
		out.Gauges[Gauge(i).String()] = jsonGauge{Value: s.Gauges[i], Peak: s.GaugePeaks[i]}
	}
	for i, h := range s.RPC {
		if h.Count == 0 {
			continue
		}
		out.RPC[RPCOp(i).String()] = jsonRPC{
			Count:       h.Count,
			SumNS:       h.SumNS,
			MeanNS:      int64(h.Mean()),
			P50NS:       int64(h.Quantile(0.50)),
			P99NS:       int64(h.Quantile(0.99)),
			TailTraceID: h.TailExemplar(),
		}
	}
	for i, h := range s.Hists {
		if h.Count == 0 {
			continue
		}
		if out.Hists == nil {
			out.Hists = make(map[string]jsonRPC, NumHists)
		}
		out.Hists[Hist(i).String()] = jsonRPC{
			Count:       h.Count,
			SumNS:       h.SumNS,
			MeanNS:      int64(h.Mean()),
			P50NS:       int64(h.Quantile(0.50)),
			P99NS:       int64(h.Quantile(0.99)),
			TailTraceID: h.TailExemplar(),
		}
	}
	for i := 0; i < int(NumRPCOps); i++ {
		io := jsonRPCIO{
			InFrames: s.RPCFrames[0][i], InBytes: s.RPCBytes[0][i],
			OutFrames: s.RPCFrames[1][i], OutBytes: s.RPCBytes[1][i],
		}
		if io.InFrames == 0 && io.OutFrames == 0 {
			continue
		}
		if out.RPCIO == nil {
			out.RPCIO = make(map[string]jsonRPCIO)
		}
		out.RPCIO[RPCOp(i).String()] = io
	}
	out.Scoreboard = r.ScoreRows()
	out.Advisor = r.Drifts()
	return out
}

// String returns the registry as a JSON object, making Registry an
// expvar.Var: expvar.Publish("gom", reg) exposes the full snapshot under
// /debug/vars.
func (r *Registry) String() string {
	if r == nil {
		return "null"
	}
	b, err := json.Marshal(r.jsonValue())
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(b)
}

// ServeHTTP serves the JSON snapshot, making Registry an http.Handler for
// a /debug/metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write([]byte(r.String()))
	_, _ = w.Write([]byte("\n"))
}

// Format renders a human-readable multi-line report of the snapshot:
// sorted non-zero counters, then one line per active RPC histogram.
func (s Snapshot) Format() string {
	type kv struct {
		name string
		v    int64
	}
	var rows []kv
	for i, v := range s.Counters {
		if v != 0 {
			rows = append(rows, kv{Counter(i).String(), v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %12d\n", r.name, r.v)
	}
	for i := range s.Gauges {
		if s.Gauges[i] == 0 && s.GaugePeaks[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  gauge{%-20s %12d   peak %d\n", Gauge(i).String()+"}", s.Gauges[i], s.GaugePeaks[i])
	}
	for i, h := range s.RPC {
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  server_rpc{%-14s %12d   mean %-10v p50 %-10v p99 %v\n",
			RPCOp(i).String()+"}", h.Count,
			h.Mean().Round(100*time.Nanosecond),
			h.Quantile(0.50), h.Quantile(0.99))
	}
	for i, h := range s.Hists {
		if h.Count == 0 {
			continue
		}
		if histDuration[i] {
			fmt.Fprintf(&b, "  hist{%-20s %12d   mean %-10v p50 %-10v p99 %v\n",
				Hist(i).String()+"}", h.Count,
				h.Mean().Round(100*time.Nanosecond),
				h.Quantile(0.50), h.Quantile(0.99))
		} else {
			fmt.Fprintf(&b, "  hist{%-20s %12d   mean %-10.1f p50 %-10d p99 %d\n",
				Hist(i).String()+"}", h.Count,
				float64(h.SumNS)/float64(h.Count),
				int64(h.Quantile(0.50)), int64(h.Quantile(0.99)))
		}
	}
	if b.Len() == 0 {
		return "  (no events recorded)\n"
	}
	return b.String()
}
