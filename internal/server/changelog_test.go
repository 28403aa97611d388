package server

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/page"
)

// TestChangeLog holds the log to its three rules without a server around
// it: a pending entry matches every query and a cancelled one none, stamped
// entries filter by the asker's previous read-LSN, and whatever the bounded
// ring cannot answer completely it refuses to answer at all.
func TestChangeLog(t *testing.T) {
	since := func(t *testing.T, l *changeLog, prev uint64, want ...page.PageID) {
		t.Helper()
		got, ok := l.since(prev)
		if !ok {
			t.Fatalf("since(%d) cannot tell, want %v", prev, want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("since(%d) = %v, want %v", prev, got, want)
		}
	}
	cannotTell := func(t *testing.T, l *changeLog, prev uint64) {
		t.Helper()
		if got, ok := l.since(prev); ok {
			t.Fatalf("since(%d) = %v, want cannot tell", prev, got)
		}
	}

	t.Run("pending matches all, stamped filters, cancelled never matches", func(t *testing.T) {
		var l changeLog
		a := l.begin([]page.PageID{3, 1})
		b := l.begin([]page.PageID{2})
		c := l.begin([]page.PageID{9})
		since(t, &l, 1, 1, 2, 3, 9)
		since(t, &l, 1000, 1, 2, 3, 9) // pending: visible to anyone, for all the log knows
		l.stamp(a, 5)
		l.cancel(c)
		since(t, &l, 4, 1, 2, 3)
		since(t, &l, 5, 2) // a was visible at read point 5 already
		l.stamp(b, 7)
		since(t, &l, 5, 2)
		since(t, &l, 7)
		if l.len() != 3 {
			t.Errorf("len = %d, want 3", l.len())
		}
	})

	t.Run("pages listed once, ascending", func(t *testing.T) {
		var l changeLog
		l.stamp(l.begin([]page.PageID{7, 4}), 2)
		l.stamp(l.begin([]page.PageID{4, 1, 7}), 3)
		since(t, &l, 1, 1, 4, 7)
	})

	t.Run("no previous read point", func(t *testing.T) {
		var l changeLog
		cannotTell(t, &l, 0)
		since(t, &l, 1)
	})

	t.Run("overflow", func(t *testing.T) {
		var l changeLog
		for i := uint64(1); i <= changeLogCap+10; i++ {
			l.stamp(l.begin([]page.PageID{page.PageID(i)}), i)
		}
		if l.len() != changeLogCap {
			t.Errorf("len = %d, want %d", l.len(), changeLogCap)
		}
		// Stamps 1..10 were dropped: a reader last at 9 has missed stamp 10.
		cannotTell(t, &l, 9)
		since(t, &l, changeLogCap+9, changeLogCap+10)
		if got, ok := l.since(10); !ok || len(got) != changeLogCap {
			t.Errorf("since(10) = %d pages, %v; want the %d still held", len(got), ok, changeLogCap)
		}
	})

	t.Run("a pending entry dropped from the ring", func(t *testing.T) {
		var l changeLog
		slow := l.begin([]page.PageID{1})
		for i := uint64(1); i <= changeLogCap; i++ {
			l.stamp(l.begin([]page.PageID{2}), i)
		}
		cannotTell(t, &l, changeLogCap) // slow's write may be visible and is no longer listed
		l.stamp(slow, changeLogCap+1)
		cannotTell(t, &l, changeLogCap) // now known to be above the asker's read point
		since(t, &l, changeLogCap+1)
	})

	t.Run("a list that would not fit one frame", func(t *testing.T) {
		var l changeLog
		pids := make([]page.PageID, maxInvalidationPages+1)
		for i := range pids {
			pids[i] = page.PageID(i)
		}
		l.stamp(l.begin(pids[:maxInvalidationPages]), 2)
		if got, ok := l.since(1); !ok || len(got) != maxInvalidationPages {
			t.Fatalf("since(1) = %d pages, %v; want %d", len(got), ok, maxInvalidationPages)
		}
		l.stamp(l.begin(pids[maxInvalidationPages:]), 3)
		cannotTell(t, &l, 1)
		since(t, &l, 2, pids[maxInvalidationPages])
	})
}

// toldClient dials a coherent connection whose handlers record what each
// snapshot begin told them.
type toldClient struct {
	*Client
	reg *metrics.Registry

	mu   sync.Mutex // the read loop tells of the lease too, when the connection closes
	told []string
}

func (tc *toldClient) tell(what string) {
	tc.mu.Lock()
	tc.told = append(tc.told, what)
	tc.mu.Unlock()
}

func dialTold(t *testing.T, srv *TCPServer) *toldClient {
	t.Helper()
	tc := &toldClient{reg: metrics.New()}
	c, err := DialWith(srv.Addr().String(), DialOptions{Metrics: tc.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tc.Client = c
	c.OnInvalidate(func(_ uint64, pids []page.PageID) { tc.tell(fmt.Sprint(pids)) })
	c.OnLeaseExpired(func() { tc.tell("all") })
	return tc
}

// snapshot begins and ends one snapshot transaction and returns its
// read-LSN and what the begin told the handlers.
func (tc *toldClient) snapshot(t *testing.T) (uint64, []string) {
	t.Helper()
	_, readLSN, err := tc.BeginSnapshotTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.CommitTx(); err != nil {
		t.Fatal(err)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	told := tc.told
	tc.told = nil
	return readLSN, told
}

// TestSnapshotBeginNamesCommitInFlight is "logged before visible" on a real
// server: while a commit is stalled in its fsync — nothing of it visible
// yet — a snapshot begin already names its pages; once it is through, the
// begin of a reader that was last at the old read point names them again,
// and the one after that, last at the new read point, does not. A commit
// that fails and stays alive names nothing; its abort does.
func TestSnapshotBeginNamesCommitInFlight(t *testing.T) {
	defer faultpoint.Reset()
	ts, _, _ := durableSetup(t, t.TempDir())
	setup := ts.Begin()
	id, addr, err := ts.Session(setup).Allocate(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})
	srv.SetMetrics(metrics.New())
	log := &srv.coh.Load().log
	named := fmt.Sprint([]page.PageID{addr.Page})

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader := dialTold(t, srv)
	before, told := reader.snapshot(t)
	if !slices.Equal(told, []string{"all"}) {
		t.Fatalf("the first snapshot begin told %v, want all", told)
	}

	update := func(val string) {
		t.Helper()
		if _, err := writer.BeginTx(); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.UpdateObject(id, []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	update("v2")
	// Skip: a delay alone would also fail the sync; a skipped one reports
	// success, late.
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchSync, Delay: 300 * time.Millisecond, Skip: true, Times: 1})
	committed := make(chan error, 1)
	go func() { committed <- writer.CommitTx() }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		log.mu.Lock()
		pending := log.next == 1 && log.ring[0].state == entryPending
		log.mu.Unlock()
		if pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the commit never reached the change log")
		}
	}
	if during, told := reader.snapshot(t); during != before || !slices.Equal(told, []string{named}) {
		t.Errorf("during the commit: read-LSN %d (before it %d), told %v; want the old read point and %s", during, before, told, named)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	after, told := reader.snapshot(t)
	if after <= before || !slices.Equal(told, []string{named}) {
		t.Errorf("after the commit: read-LSN %d (before it %d), told %v; want a newer read point and %s", after, before, told, named)
	}
	if again, told := reader.snapshot(t); again != after || told != nil {
		t.Errorf("with nothing committed since: read-LSN %d (last %d), told %v; want the same read point and nothing", again, after, told)
	}

	// A commit that fails leaves its transaction alive, locks held, nothing
	// visible: its entry is cancelled. The abort that follows is logged.
	update("v3")
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.WALBatchAppend, TornWrite: true, TornAt: 2, Times: 1})
	if err := writer.CommitTx(); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("CommitTx over a torn WAL = %v, want a not-durable error", err)
	}
	if _, told := reader.snapshot(t); told != nil {
		t.Errorf("after a failed commit the begin told %v, want nothing", told)
	}
	if err := writer.AbortTx(); err != nil {
		t.Fatal(err)
	}
	if _, told := reader.snapshot(t); !slices.Equal(told, []string{named}) {
		t.Errorf("after the abort the begin told %v, want %s", told, named)
	}

	snap := reader.reg.Snapshot()
	if lists, pages, all := snap.Count(metrics.CtrCoherenceBeginList), snap.Count(metrics.CtrCoherenceBeginPages), snap.Count(metrics.CtrCoherenceBeginAll); lists != 5 || pages != 3 || all != 1 {
		t.Errorf("reader counted %d lists naming %d pages and %d whole-cache answers; want 5, 3 and 1", lists, pages, all)
	}
	if got := snap.Count(metrics.CtrCoherenceLeaseExpired); got != 0 {
		t.Errorf("coherence_lease_expired = %d, want 0", got)
	}
	if got := srv.Metrics().GaugeValue(metrics.GaugeCoherenceChangeLog); got != int64(log.len()) || got != 3 {
		t.Errorf("coherence_change_log_entries = %d, the log holds %d; want 3", got, log.len())
	}
}

// TestSnapshotBeginNamesAutoCommit: an update outside a transaction commits
// as a transaction of its own and consumes an LSN like any other commit —
// the next begin of a reader at the read point before it is at the next
// one and names its pages, both of them when the update relocates the
// object.
func TestSnapshotBeginNamesAutoCommit(t *testing.T) {
	ts, m, _ := durableSetup(t, t.TempDir())
	setup := ts.Begin()
	sess := ts.Session(setup)
	id, addr, err := sess.Allocate(1, make([]byte, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Allocate(1, make([]byte, 1000)); err != nil { // fills the page: growing id must move it
		t.Fatal(err)
	}
	if err := ts.Commit(setup); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTx(ln, ts)
	defer srv.Close()
	srv.EnableCoherence(CoherenceOptions{})

	writer, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	reader := dialTold(t, srv)
	before, _ := reader.snapshot(t)

	moved, err := writer.UpdateObject(id, make([]byte, 3500))
	if err != nil {
		t.Fatal(err)
	}
	if moved.Page == addr.Page {
		t.Fatalf("the update did not relocate the object (still on %v)", addr.Page)
	}
	if got := m.Versions().StablePoint(); got != before+1 {
		t.Fatalf("the update moved the stable point from %d to %d, want %d", before, got, before+1)
	}
	want := []page.PageID{addr.Page, moved.Page}
	slices.Sort(want)
	if after, told := reader.snapshot(t); after != before+1 || !slices.Equal(told, []string{fmt.Sprint(want)}) {
		t.Errorf("after the update: read-LSN %d (before it %d), told %v; want the next read point and %v", after, before, told, want)
	}
}
