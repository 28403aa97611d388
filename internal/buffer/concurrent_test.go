package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
)

// gatedServer wraps a server and blocks ReadPage until released, counting
// the calls — the probe for fault coalescing.
type gatedServer struct {
	server.Server
	reads atomic.Int64
	gate  chan struct{}
}

func (g *gatedServer) ReadPage(pid page.PageID) ([]byte, error) {
	g.reads.Add(1)
	if g.gate != nil {
		<-g.gate
	}
	return g.Server.ReadPage(pid)
}

// TestFaultCoalescing: N goroutines demand-fault the same absent page at
// once; exactly one server read happens, the followers wait on the leader
// and count as coalesced.
func TestFaultCoalescing(t *testing.T) {
	const waiters = 8
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(0); err != nil {
		t.Fatal(err)
	}
	pid, err := mgr.Disk().AllocPage(0)
	if err != nil {
		t.Fatal(err)
	}
	gs := &gatedServer{Server: server.NewLocal(mgr), gate: make(chan struct{})}
	meter := sim.NewMeter(sim.DefaultCosts())
	pool := New(gs, 4, meter)
	obs := metrics.New()
	pool.SetMetrics(obs)

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Get(pid); err != nil {
				t.Error(err)
			}
		}()
	}
	// The leader increments reads before blocking on the gate; each follower
	// counts itself coalesced before waiting on the leader. Spin until all
	// waiters are accounted for, then release the read.
	for gs.reads.Load() != 1 || obs.Count(metrics.CtrFaultCoalesced) != waiters-1 {
		runtime.Gosched()
	}
	close(gs.gate)
	wg.Wait()

	if n := gs.reads.Load(); n != 1 {
		t.Errorf("server reads = %d, want 1 (coalesced)", n)
	}
	if n := meter.Count(sim.CntPageFault); n != 1 {
		t.Errorf("charged faults = %d, want 1", n)
	}
	if n := obs.Count(metrics.CtrFaultCoalesced); n != waiters-1 {
		t.Errorf("coalesced = %d, want %d", n, waiters-1)
	}
	// Each follower retries the lookup once the leader installs the frame,
	// so every coalesced fault resolves as a buffer hit.
	if n := obs.Count(metrics.CtrBufferHit); n != waiters-1 {
		t.Errorf("hits = %d, want %d (one retry-hit per follower)", n, waiters-1)
	}
}

// TestConcurrentGetStress hammers a small pool from many goroutines over a
// larger page set, forcing continuous faulting and eviction; totals must
// balance and no frame may be lost.
func TestConcurrentGetStress(t *testing.T) {
	const npages = 12
	const capacity = 4
	const workers = 8
	const rounds = 200
	pool, meter, pids := setup(t, npages, capacity)
	pool.SetMetrics(metrics.New())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pid := pids[(w*5+r)%npages]
				f, err := pool.Get(pid)
				if err == ErrNoFrames {
					continue // every frame pinned by the other workers
				}
				if err != nil {
					t.Error(err)
					return
				}
				if err := pool.Pin(pid); err != nil {
					continue // frame already evicted again: fine
				}
				if _, err := f.Page.Read(0); err != nil {
					t.Error(err)
				}
				if err := pool.Unpin(pid); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := pool.Len(); got > capacity {
		t.Errorf("pool overflowed: %d frames, capacity %d", got, capacity)
	}
	faults := meter.Count(sim.CntPageFault)
	evicts := meter.Count(sim.CntPageEvict)
	if faults-evicts != int64(pool.Len()) {
		t.Errorf("faults(%d) - evicts(%d) != resident(%d)", faults, evicts, pool.Len())
	}
}

// TestFaultAfterPeerInstallRetries: a goroutine that missed a page can
// become fault leader after another leader has installed it. The leader's
// presence re-check must send it back to the lookup instead of reading and
// installing the page a second time.
func TestFaultAfterPeerInstallRetries(t *testing.T) {
	mgr, pids := newBase(t, 2)
	gs := &gatedServer{Server: server.NewLocal(mgr)}
	meter := sim.NewMeter(sim.DefaultCosts())
	pool := New(gs, 2, meter)
	if _, err := pool.Get(pids[0]); err != nil {
		t.Fatal(err)
	}

	// The late misser: its lookup found nothing, and the earlier leader has
	// installed the page and left the in-flight table since.
	f, err, retry := pool.fault(pids[0])
	if f != nil || err != nil || !retry {
		t.Fatalf("fault of an installed page = %v, %v, retry %v; want nil, nil, retry", f, err, retry)
	}
	if n := gs.reads.Load(); n != 1 {
		t.Errorf("server reads = %d, want 1 (the page was read again)", n)
	}
	if n := pool.Len(); n != 1 {
		t.Errorf("buffered frames = %d, want 1", n)
	}
	if n := meter.Count(sim.CntPageFault); n != 1 {
		t.Errorf("charged faults = %d, want 1", n)
	}
}
