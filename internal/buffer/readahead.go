package buffer

import (
	"sync"

	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/server"
)

// Readahead: when the pool detects a sequential run of page misses, it
// prefetches the next window of the run asynchronously through the
// server's PageRunReader capability, so a sequential scan overlaps the
// network/disk latency of page N+1..N+w with the client's processing of
// page N.
//
// A fetched image is promoted straight into a free pool frame when spare
// capacity exists (marked prefetched; the first demand Get claims it, and
// the victim scan evicts unclaimed ones first so prefetch never starves
// demand faults). When the pool is full, images are parked in a bounded
// staging area instead — staged pages do not occupy frames and never
// displace objects; a later miss consumes the staged image without a
// server round-trip.
//
// Staged and promoted-but-unclaimed images are invalidated whenever the
// client writes a newer version of the page back (write-back or refresh),
// including while a fetch for that page is still in flight — the returning
// fetch then discards its stale copy instead of staging it.

// raStagedCap bounds the staging area, in multiples of the window.
const raStagedCap = 4

type readahead struct {
	reader server.PageRunReader
	window int

	mu       sync.Mutex
	staged   map[page.PageID][]byte
	inflight map[page.PageID]struct{}
	// barred marks in-flight pages whose fetched image must be discarded
	// on arrival because the client wrote the page back meanwhile.
	barred map[page.PageID]struct{}
	wg     sync.WaitGroup

	// Sequential-run detector state, guarded by mu.
	lastMiss page.PageID
	haveLast bool
}

// EnableReadahead turns on sequential readahead with the given window (in
// pages), or turns it off with window < 1. It reports whether readahead is
// active afterwards; a server without the PageRunReader capability leaves
// it off.
func (p *Pool) EnableReadahead(window int) bool {
	if window < 1 {
		p.ra = nil
		return false
	}
	reader, ok := p.srv.(server.PageRunReader)
	if !ok {
		p.ra = nil
		return false
	}
	p.ra = &readahead{
		reader:   reader,
		window:   window,
		staged:   make(map[page.PageID][]byte),
		inflight: make(map[page.PageID]struct{}),
		barred:   make(map[page.PageID]struct{}),
	}
	return true
}

// ReadaheadEnabled reports whether sequential readahead is active.
func (p *Pool) ReadaheadEnabled() bool { return p.ra != nil }

// WaitReadahead blocks until no prefetch is in flight (tests use it to
// make the asynchronous staging deterministic).
func (p *Pool) WaitReadahead() {
	if p.ra != nil {
		p.ra.wg.Wait()
	}
}

// take removes and returns the staged image for pid, or nil.
func (ra *readahead) take(pid page.PageID, obs *metrics.Registry) []byte {
	ra.mu.Lock()
	img, ok := ra.staged[pid]
	if ok {
		delete(ra.staged, pid)
	}
	ra.mu.Unlock()
	if !ok {
		return nil
	}
	obs.GaugeAdd(metrics.GaugeReadaheadStaged, -1)
	return img
}

// invalidate drops any staged image of pid and bars an in-flight fetch of
// it from staging, because the client is about to make the server-side
// page newer than any copy the readahead path holds.
func (ra *readahead) invalidate(pid page.PageID, obs *metrics.Registry) {
	ra.mu.Lock()
	if _, ok := ra.staged[pid]; ok {
		delete(ra.staged, pid)
		obs.Inc(metrics.CtrReadaheadWasted)
		obs.GaugeAdd(metrics.GaugeReadaheadStaged, -1)
	}
	if _, ok := ra.inflight[pid]; ok {
		ra.barred[pid] = struct{}{}
	}
	ra.mu.Unlock()
}

// discardAll empties the staging area and bars everything in flight (the
// client-side state is being thrown away wholesale).
func (ra *readahead) discardAll(obs *metrics.Registry) {
	ra.mu.Lock()
	n := len(ra.staged)
	ra.staged = make(map[page.PageID][]byte)
	for pid := range ra.inflight {
		ra.barred[pid] = struct{}{}
	}
	ra.haveLast = false
	ra.mu.Unlock()
	if n > 0 {
		obs.AddN(metrics.CtrReadaheadWasted, int64(n))
		obs.GaugeAdd(metrics.GaugeReadaheadStaged, -int64(n))
	}
}

// tryPromote installs a prefetched image into a free pool frame, if spare
// capacity exists (promotion never evicts) and no demand fault for the
// page is in flight. Reports whether the image was installed.
func (p *Pool) tryPromote(pid page.PageID, img []byte) bool {
	p.resMu.Lock()
	if int(p.count.Load())+p.reserved >= p.capacity {
		p.resMu.Unlock()
		return false
	}
	p.reserved++
	p.resMu.Unlock()
	pg, dir, err := splitRead(img)
	if err != nil {
		p.unreserve()
		return false
	}
	// Holding faultMu across the install means a demand-fault leader either
	// sees our frame when it re-checks presence, or registers in inflight
	// first and we back off — never a double install.
	p.faultMu.Lock()
	if _, faulting := p.inflight[pid]; faulting || p.Peek(pid) != nil {
		p.faultMu.Unlock()
		p.unreserve()
		return false
	}
	p.install(pid, pg, dir, true)
	p.faultMu.Unlock()
	return true
}

// noteMiss records a pool miss at pid and, when it extends a sequential
// run, prefetches the next window of pages that are neither buffered nor
// already staged or in flight.
func (p *Pool) noteMiss(pid page.PageID) {
	ra := p.ra
	ra.mu.Lock()
	sequential := ra.haveLast &&
		pid.Segment() == ra.lastMiss.Segment() &&
		pid.No() == ra.lastMiss.No()+1
	ra.lastMiss = pid
	ra.haveLast = true
	if !sequential {
		ra.mu.Unlock()
		return
	}
	seg, no := pid.Segment(), pid.No()
	present := func(cand page.PageID) bool {
		_, staged := ra.staged[cand]
		_, fetching := ra.inflight[cand]
		return staged || fetching || p.Contains(cand)
	}
	// Hysteresis: refill only when the contiguous run of pages already
	// available ahead of the scan drops below half the window, and then
	// fetch a full window — one batched round-trip per ~window pages,
	// instead of a one-page top-up per page consumed.
	ahead := 0
	for i := 1; i <= ra.window; i++ {
		if !present(page.NewPageID(seg, no+uint64(i))) {
			break
		}
		ahead++
	}
	if ahead >= (ra.window+1)/2 {
		ra.mu.Unlock()
		return
	}
	start := page.NewPageID(seg, no+uint64(ahead)+1)
	n := 0
	for n < ra.window && !present(page.NewPageID(seg, start.No()+uint64(n))) {
		n++
	}
	for i := 0; i < n; i++ {
		ra.inflight[page.NewPageID(seg, start.No()+uint64(i))] = struct{}{}
	}
	ra.mu.Unlock()
	if n == 0 {
		return
	}
	obs := p.obs
	// Capture the requesting operation's trace context *before* spawning:
	// by the time the goroutine runs, the operation that triggered the
	// prefetch may have finished and the ambient context moved on.
	par := p.traceCtx()
	ra.wg.Add(1)
	go func() {
		defer ra.wg.Done()
		if sp := p.spans.StartChild(spanReadahead, par); sp.Sampled() {
			sp.SetArgs(uint64(start), uint64(n))
			defer sp.Finish()
		}
		imgs, err := ra.reader.ReadPages(start, n)
		issued, staged := 0, 0
		for i := 0; i < n; i++ {
			cand := page.NewPageID(seg, start.No()+uint64(i))
			ra.mu.Lock()
			delete(ra.inflight, cand)
			_, bad := ra.barred[cand]
			delete(ra.barred, cand)
			ra.mu.Unlock()
			if err != nil || i >= len(imgs) {
				continue // short run (segment end) or failed fetch
			}
			if bad {
				obs.Inc(metrics.CtrReadaheadWasted)
				continue
			}
			if p.tryPromote(cand, imgs[i]) {
				issued++
				continue
			}
			ra.mu.Lock()
			if len(ra.staged) >= raStagedCap*ra.window {
				ra.mu.Unlock()
				obs.Inc(metrics.CtrReadaheadWasted)
				continue
			}
			ra.staged[cand] = imgs[i]
			ra.mu.Unlock()
			issued++
			staged++
		}
		if issued > 0 {
			obs.AddN(metrics.CtrReadaheadIssued, int64(issued))
		}
		if staged > 0 {
			obs.GaugeAdd(metrics.GaugeReadaheadStaged, int64(staged))
		}
	}()
}
