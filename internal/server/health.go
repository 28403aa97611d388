package server

import (
	"fmt"
	"time"

	"gom/internal/health"
	"gom/internal/storage"
)

// Default cadence and stall horizon for the server watchdog. A check
// round every healthInterval keeps /healthz no staler than half a
// second; a WAL writer that has neither completed a cycle nor finished
// its current flush within healthStallAfter is reported stalled.
const (
	healthInterval   = 500 * time.Millisecond
	healthStallAfter = 2 * time.Second
)

// commitQueueDegradedFrac: the commit_queue check degrades when pending
// enqueued commits reach this fraction of the queue capacity.
const commitQueueDegradedFrac = 0.5

// versionBytesDegradedFrac: the version_store check degrades when
// retained before-image bytes reach this fraction of the configured cap.
const versionBytesDegradedFrac = 0.9

// HealthChecks builds the server's watchdog check set. stallAfter is the
// horizon after which a non-progressing WAL writer is reported stalled
// (<=0 selects healthStallAfter). The checks are cheap — atomic loads
// and short critical sections — and safe to run concurrently with
// serving traffic.
func (s *TCPServer) HealthChecks(stallAfter time.Duration) []health.Check {
	if stallAfter <= 0 {
		stallAfter = healthStallAfter
	}
	mgr := s.mgr
	return []health.Check{
		{Name: "wal_writer", Run: func() (health.Status, string) {
			return walWriterHealth(mgr.WAL(), stallAfter, time.Now())
		}},
		{Name: "commit_queue", Run: func() (health.Status, string) {
			return commitQueueHealth(mgr.WAL())
		}},
		{Name: "version_store", Run: func() (health.Status, string) {
			return versionStoreHealth(mgr.Versions())
		}},
		{Name: "pooled_frames", Run: poolHealth},
	}
}

// walWriterHealth judges the log writer's liveness — whichever committer
// leads the current group-commit flush: a flush in progress for longer
// than stallAfter, or queued commits with no finished flush for longer
// than stallAfter, is a stall. An idle log (nothing pending) is healthy
// no matter how old its last flush.
func walWriterHealth(w *storage.WAL, stallAfter time.Duration, now time.Time) (health.Status, string) {
	if w == nil {
		return health.OK, "no WAL attached"
	}
	st := w.GroupCommitStatus()
	if !st.BusySince.IsZero() {
		if busy := now.Sub(st.BusySince); busy > stallAfter {
			return health.Stalled, fmt.Sprintf("flush in progress for %v (stall horizon %v)", busy.Round(time.Millisecond), stallAfter)
		}
	}
	if st.Pending > 0 && !st.LastBeat.IsZero() {
		if idle := now.Sub(st.LastBeat); idle > stallAfter {
			return health.Stalled, fmt.Sprintf("%d commits pending, no flush for %v", st.Pending, idle.Round(time.Millisecond))
		}
	}
	if st.LastBeat.IsZero() {
		return health.OK, "no flush yet"
	}
	return health.OK, fmt.Sprintf("last flush %v ago, %d pending", now.Sub(st.LastBeat).Round(time.Millisecond), st.Pending)
}

// commitQueueHealth degrades when the group-commit queue is at or above
// half its nominal capacity — commits are arriving faster than flushes
// drain them, the precursor of enqueue-wait tail latency.
func commitQueueHealth(w *storage.WAL) (health.Status, string) {
	if w == nil {
		return health.OK, "no WAL attached"
	}
	st := w.GroupCommitStatus()
	detail := fmt.Sprintf("%d/%d pending", st.Pending, st.QueueCap)
	if st.QueueCap > 0 && float64(st.Pending) >= commitQueueDegradedFrac*float64(st.QueueCap) {
		return health.Degraded, detail
	}
	return health.OK, detail
}

// versionStoreHealth degrades when retained before-image bytes near the
// configured cap (new snapshots would soon be refused). The detail line
// carries retention size and snapshot lag either way.
func versionStoreHealth(vs *storage.VersionStore) (health.Status, string) {
	if vs == nil {
		return health.OK, "no version store"
	}
	st := vs.Stats()
	lag := st.Stable - st.Watermark
	detail := fmt.Sprintf("%d pages / %d bytes retained, %d snapshots, lag %d", st.Pages, st.Bytes, st.Snapshots, lag)
	if cap := vs.CapBytes(); cap > 0 && float64(st.Bytes) >= versionBytesDegradedFrac*float64(cap) {
		return health.Degraded, detail + fmt.Sprintf(" (>=%d%% of %d-byte cap)", int(versionBytesDegradedFrac*100), cap)
	}
	return health.OK, detail
}

// poolHealth degrades on a negative pooled-object balance — a double
// put, which corrupts the pools. Positive balances are normal while
// requests are in flight, so only report them. Off unless pool debug
// accounting is enabled.
func poolHealth() (health.Status, string) {
	if !poolDebug.Load() {
		return health.OK, "pool accounting off"
	}
	bufs, frames := PoolOutstanding()
	detail := fmt.Sprintf("%d bufs / %d frames outstanding", bufs, frames)
	if bufs < 0 || frames < 0 {
		return health.Degraded, detail + " (negative balance: double put)"
	}
	return health.OK, detail
}
