// Package coherence implements the server-side interest table of the
// callback/lease cache-coherence protocol (DESIGN.md "Cache coherence").
//
// Every client that reads a page through a coherence-negotiated
// connection registers interest in it; a committed write consumes the
// registrations of every other interested client and yields the per-client
// page sets the server must push invalidation callbacks for. The table is
// bounded: past the configured capacity the oldest registrations are
// revoked (the server pushes an immediate revocation invalidation so the
// evicted client drops its cached copy rather than going silently stale).
//
// The table is a pure data structure — it knows nothing about connections
// or wire frames — so it can be exercised directly by property tests and
// race storms without a server.
package coherence

import (
	"sync"

	"gom/internal/page"
)

// ClientID identifies one subscribed client (one coherence-negotiated
// connection). IDs are allocated by the transport; 0 is reserved for "no
// client" (a writer with no coherence connection, e.g. a connection
// negotiated before EnableCoherence).
type ClientID uint64

// Eviction is one registration revoked by the capacity bound; the
// transport must push a revocation invalidation for it.
type Eviction struct {
	Client ClientID
	Page   page.PageID
}

// pair is one (page, client) registration in the FIFO eviction queue.
type pair struct {
	pid page.PageID
	cid ClientID
	seq uint64
}

// Table is the bounded interest table: PageID → interested clients, with
// per-registration lease epochs. Safe for concurrent use.
type Table struct {
	mu sync.Mutex
	// cap bounds the number of (page, client) registrations retained.
	cap int
	// epoch is the invalidation epoch: bumped once per invalidation
	// round, carried in every callback frame, and recorded on each
	// registration (a registration's lease epoch is the round during
	// which it was taken).
	epoch uint64
	seq   uint64
	// pages is the forward map (who to call back when a page changes);
	// the value holds each client's registration sequence number so stale
	// queue entries are recognizable.
	pages map[page.PageID]map[ClientID]uint64
	// byClient is the reverse map, for disconnect cleanup.
	byClient map[ClientID]map[page.PageID]struct{}
	// queue is the FIFO of registrations for capacity eviction; entries
	// whose (pid, cid, seq) no longer match the forward map are stale and
	// skipped.
	queue []pair
	size  int
}

// DefaultCap is the interest-table bound used when a Table is constructed
// with cap <= 0: 64Ki (page, client) registrations, a few MB of map
// overhead at worst.
const DefaultCap = 1 << 16

// NewTable returns an empty interest table bounded to cap registrations
// (cap <= 0 selects DefaultCap).
func NewTable(cap int) *Table {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Table{
		cap:      cap,
		pages:    make(map[page.PageID]map[ClientID]uint64),
		byClient: make(map[ClientID]map[page.PageID]struct{}),
	}
}

// Register records cid's interest in pid and returns any registrations the
// capacity bound evicted to make room (never including the one just
// taken). Re-registering refreshes the entry's queue position.
func (t *Table) Register(pid page.PageID, cid ClientID) []Eviction {
	if cid == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	clients := t.pages[pid]
	if clients == nil {
		clients = make(map[ClientID]uint64)
		t.pages[pid] = clients
	}
	if _, ok := clients[cid]; !ok {
		t.size++
		byc := t.byClient[cid]
		if byc == nil {
			byc = make(map[page.PageID]struct{})
			t.byClient[cid] = byc
		}
		byc[pid] = struct{}{}
	}
	clients[cid] = t.seq
	t.queue = append(t.queue, pair{pid: pid, cid: cid, seq: t.seq})

	var evicted []Eviction
	for t.size > t.cap && len(t.queue) > 0 {
		head := t.queue[0]
		t.queue = t.queue[1:]
		if cur, ok := t.lookup(head.pid, head.cid); !ok || cur != head.seq {
			continue // stale queue entry (re-registered or already removed)
		}
		if head.pid == pid && head.cid == cid {
			// Never revoke the registration being taken: the caller is
			// about to serve this page and must stay subscribed.
			t.queue = append(t.queue, head)
			continue
		}
		t.remove(head.pid, head.cid)
		evicted = append(evicted, Eviction{Client: head.cid, Page: head.pid})
	}
	// Every re-registration leaves a stale entry behind. Compact once they
	// outnumber the live ones: the queue then never exceeds twice the live
	// registrations (plus the slack), and a compaction's pass over it is
	// paid for by the appends that made it necessary.
	if len(t.queue) > 2*t.size+queueSlack {
		t.compact()
	}
	return evicted
}

// queueSlack keeps a small table from compacting on every registration.
const queueSlack = 64

// lookup reports cid's registration sequence for pid. Caller holds mu.
func (t *Table) lookup(pid page.PageID, cid ClientID) (uint64, bool) {
	clients, ok := t.pages[pid]
	if !ok {
		return 0, false
	}
	s, ok := clients[cid]
	return s, ok
}

// remove drops one registration. Caller holds mu.
func (t *Table) remove(pid page.PageID, cid ClientID) {
	clients, ok := t.pages[pid]
	if !ok {
		return
	}
	if _, ok := clients[cid]; !ok {
		return
	}
	delete(clients, cid)
	if len(clients) == 0 {
		delete(t.pages, pid)
	}
	if byc := t.byClient[cid]; byc != nil {
		delete(byc, pid)
		if len(byc) == 0 {
			delete(t.byClient, cid)
		}
	}
	t.size--
}

// compact rewrites the eviction queue with only live entries, into a
// fresh slice sized for them: reslicing the old array would keep every
// popped head and every stale entry it ever held alive. Caller holds mu.
func (t *Table) compact() {
	live := make([]pair, 0, 2*t.size+queueSlack+1)
	for _, p := range t.queue {
		if cur, ok := t.lookup(p.pid, p.cid); ok && cur == p.seq {
			live = append(live, p)
		}
	}
	t.queue = live
}

// StillRegistered reports whether cid's interest in pid is currently
// recorded. The server's validated-read loop uses it to close the race
// between registering interest and reading the page image: if an
// invalidation round consumed the registration in between, the image just
// read may predate the committed write whose callback this client already
// missed, so the read must re-register and retry.
func (t *Table) StillRegistered(pid page.PageID, cid ClientID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.lookup(pid, cid)
	return ok
}

// Invalidate consumes every registration on the given pages except the
// writer's own and returns the bumped invalidation epoch plus the pages
// each other client must be called back for. An empty result means no
// callbacks are owed.
func (t *Table) Invalidate(pids []page.PageID, writer ClientID) (uint64, map[ClientID][]page.PageID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epoch++
	var targets map[ClientID][]page.PageID
	for _, pid := range pids {
		clients, ok := t.pages[pid]
		if !ok {
			continue
		}
		for cid := range clients {
			if cid == writer {
				continue
			}
			if targets == nil {
				targets = make(map[ClientID][]page.PageID)
			}
			targets[cid] = append(targets[cid], pid)
		}
		for cid := range clients {
			if cid != writer {
				t.remove(pid, cid)
			}
		}
	}
	return t.epoch, targets
}

// Disconnect drops every registration held by cid (connection teardown).
func (t *Table) Disconnect(cid ClientID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pids := make([]page.PageID, 0, len(t.byClient[cid]))
	for pid := range t.byClient[cid] {
		pids = append(pids, pid)
	}
	for _, pid := range pids {
		t.remove(pid, cid)
	}
}

// Epoch returns the current invalidation epoch.
func (t *Table) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Len returns the number of live (page, client) registrations.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size
}

// Sizes returns the number of live registrations and the length of the
// eviction queue, which also holds the stale entries re-registrations
// left behind since the last compaction.
func (t *Table) Sizes() (live, queue int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.size, len(t.queue)
}
