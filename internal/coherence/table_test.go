package coherence

import (
	"math/rand"
	"sync"
	"testing"

	"gom/internal/page"
)

func TestTableRegisterInvalidate(t *testing.T) {
	tb := NewTable(0)
	if ev := tb.Register(1, 10); ev != nil {
		t.Fatalf("unexpected evictions: %v", ev)
	}
	tb.Register(1, 11)
	tb.Register(2, 11)
	if got := tb.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if !tb.StillRegistered(1, 10) || !tb.StillRegistered(2, 11) {
		t.Fatal("registrations missing")
	}

	// Client 11 writes page 1: only client 10 is called back, and only
	// its registration on page 1 is consumed.
	epoch, targets := tb.Invalidate([]page.PageID{1}, 11)
	if epoch != 1 {
		t.Errorf("epoch = %d, want 1", epoch)
	}
	if len(targets) != 1 || len(targets[10]) != 1 || targets[10][0] != 1 {
		t.Errorf("targets = %v, want {10: [1]}", targets)
	}
	if tb.StillRegistered(1, 10) {
		t.Error("consumed registration still present")
	}
	if !tb.StillRegistered(1, 11) {
		t.Error("writer's own registration was consumed")
	}
	if !tb.StillRegistered(2, 11) {
		t.Error("unrelated page's registration was consumed")
	}

	// Nobody else interested: no callbacks owed, epoch still advances.
	epoch, targets = tb.Invalidate([]page.PageID{2}, 11)
	if epoch != 2 || targets != nil {
		t.Errorf("Invalidate = (%d, %v), want (2, nil)", epoch, targets)
	}
	if tb.Epoch() != 2 {
		t.Errorf("Epoch = %d, want 2", tb.Epoch())
	}
}

func TestTableClientZeroIgnored(t *testing.T) {
	tb := NewTable(0)
	if ev := tb.Register(1, 0); ev != nil {
		t.Fatalf("unexpected evictions: %v", ev)
	}
	if tb.Len() != 0 {
		t.Fatal("ClientID 0 must never be registered")
	}
	// A writer with no coherence connection (ID 0) invalidates everyone.
	tb.Register(1, 10)
	_, targets := tb.Invalidate([]page.PageID{1}, 0)
	if len(targets[10]) != 1 {
		t.Fatalf("targets = %v, want client 10 called back", targets)
	}
}

func TestTableDisconnect(t *testing.T) {
	tb := NewTable(0)
	tb.Register(1, 10)
	tb.Register(2, 10)
	tb.Register(1, 11)
	tb.Disconnect(10)
	if tb.StillRegistered(1, 10) || tb.StillRegistered(2, 10) {
		t.Error("disconnect left registrations behind")
	}
	if !tb.StillRegistered(1, 11) {
		t.Error("disconnect removed another client's registration")
	}
	if got := tb.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	tb.Disconnect(99) // unknown client: no-op
}

func TestTableCapacityEviction(t *testing.T) {
	tb := NewTable(2)
	tb.Register(1, 10)
	tb.Register(2, 10)
	ev := tb.Register(3, 10)
	if len(ev) != 1 || ev[0] != (Eviction{Client: 10, Page: 1}) {
		t.Fatalf("evictions = %v, want oldest (page 1)", ev)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", tb.Len())
	}
	if tb.StillRegistered(1, 10) {
		t.Error("evicted registration still present")
	}

	// Re-registering refreshes the queue position: page 2 is now oldest.
	tb.Register(3, 10) // refresh
	ev = tb.Register(4, 10)
	if len(ev) != 1 || ev[0].Page != 2 {
		t.Fatalf("evictions = %v, want page 2 (3 was refreshed)", ev)
	}
}

// TestTableNeverEvictsOwnRegistration: at cap 1 every Register would have
// to evict its own just-taken entry; it must refuse and stay registered
// (the caller is about to serve the page).
func TestTableNeverEvictsOwnRegistration(t *testing.T) {
	tb := NewTable(1)
	for pid := page.PageID(1); pid <= 4; pid++ {
		tb.Register(pid, 10)
		if !tb.StillRegistered(pid, 10) {
			t.Fatalf("registration for page %d was self-evicted", pid)
		}
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestTableQueueCompaction re-registers a fixed set of pages a hundred
// thousand times: the eviction queue must stay within twice the live
// registrations (plus the slack) however many page reads the table has
// seen, and no registration may get lost in a compaction.
func TestTableQueueCompaction(t *testing.T) {
	const pages = 1000
	tb := NewTable(0)
	for i := 0; i < 100_000; i++ {
		tb.Register(page.PageID(i%pages+1), 10)
		if live, queue := tb.Sizes(); queue > 2*live+queueSlack {
			t.Fatalf("after %d registrations the queue holds %d entries for %d live ones", i+1, queue, live)
		}
	}
	if got := tb.Len(); got != pages {
		t.Fatalf("Len = %d, want %d", got, pages)
	}
	if got := cap(tb.queue); got > 2*(2*pages+queueSlack+1) {
		t.Fatalf("queue array holds %d entries for %d live ones: compaction does not release it", got, pages)
	}
	for pid := page.PageID(1); pid <= pages; pid++ {
		if !tb.StillRegistered(pid, 10) {
			t.Fatalf("page %d lost its registration during churn", pid)
		}
	}
	// Past capacity the oldest registrations still go first.
	small := NewTable(4)
	for i := 0; i < 1000; i++ {
		small.Register(page.PageID(i%4+1), 10)
	}
	if ev := small.Register(5, 10); len(ev) != 1 || ev[0].Page != 1 {
		t.Fatalf("evicted %v, want the oldest registration (page 1)", ev)
	}
}

// TestTableRaceStorm is the -race guard from the issue: four clients
// register, invalidate, and disconnect concurrently while invariants are
// probed from the outside. Run with -race.
func TestTableRaceStorm(t *testing.T) {
	const (
		clients = 4
		pages   = 32
		rounds  = 2000
	)
	tb := NewTable(64)
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		cid := ClientID(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cid)))
			for i := 0; i < rounds; i++ {
				pid := page.PageID(rng.Intn(pages))
				switch rng.Intn(10) {
				case 0:
					tb.Disconnect(cid)
				case 1, 2:
					tb.Invalidate([]page.PageID{pid, pid + 1}, cid)
				default:
					tb.Register(pid, cid)
					tb.StillRegistered(pid, cid)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			// Final invariant: Len agrees with a full recount.
			tb.mu.Lock()
			n := 0
			for _, clients := range tb.pages {
				n += len(clients)
			}
			if n != tb.size {
				t.Errorf("size = %d, recount = %d", tb.size, n)
			}
			for cid, byc := range tb.byClient {
				for pid := range byc {
					if _, ok := tb.lookup(pid, cid); !ok {
						t.Errorf("reverse map has (%d,%d) missing forward", pid, cid)
					}
				}
			}
			tb.mu.Unlock()
			if got := tb.Len(); got > 64 {
				t.Errorf("Len = %d exceeds cap", got)
			}
			return
		default:
			tb.Len()
			tb.Epoch()
		}
	}
}
