// Package faultpoint provides named, deterministic fault-injection sites.
//
// Production code threads fault sites through its failure-prone paths (disk
// I/O, WAL appends, eviction write-back, the TCP client) by calling Check /
// CheckSync / CheckWrite with a site name. When nothing is armed the calls
// are a single atomic load — zero allocations, no locks — so the sites stay
// compiled into release binaries. Tests arm faults against sites to build
// crash-consistency and fault-tolerance scenarios that were previously
// expressed with ad-hoc failing-server wrappers.
//
// Faults are deterministic: each armed fault counts the calls that reach a
// matching site and triggers after a configured number of passes, a
// configured number of times. Sites are matched exactly, or by prefix when
// the armed site name ends in '*' (e.g. "server.*" matches every server
// operation, reproducing a global fail-after-N-calls budget).
package faultpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names used across the repository. Constants keep call sites and
// tests agreeing on the spelling; nothing stops a package from minting its
// own names.
const (
	// DiskRead / DiskWrite guard the simulated disk's page I/O.
	DiskRead  = "disk.read"
	DiskWrite = "disk.write"
	// WALAppend guards write-ahead-log redo and system record appends
	// (CheckWrite — a torn write tears the record at a byte offset and
	// poisons the log, so the next commit gets ErrWALBroken). WALSync
	// guards WAL.Sync's fsync (CheckSync — a skipped sync silently loses
	// everything after the last durable offset at the next crash); commit
	// records are fsynced under WALBatchSync instead.
	WALAppend = "wal.append"
	WALSync   = "wal.sync"
	// Group-commit sites. WALBatchAppend guards a batch's multi-record
	// commit append (CheckWrite — a torn write can cut inside any record of
	// the batch, a partial-batch torn write). WALBatchSync guards the
	// batch's single fsync (CheckSync — an error fails every transaction in
	// the batch, a Skip loses the whole batch at the next crash).
	// WALWriterStall is checked by the committer that leads a flush, before
	// it takes the queue — arm a Delay to stall the log writer and force
	// commit arrivals to pile into larger batches.
	WALBatchAppend = "wal.batchappend"
	WALBatchSync   = "wal.batchsync"
	WALWriterStall = "wal.writerstall"
	// BufferWriteBack guards the client buffer pool's eviction/flush
	// write-back of dirty pages.
	BufferWriteBack = "buffer.writeback"
	// RPCSend guards the TCP client just before a request ships: an armed
	// error drops the RPC without sending (a transient failure the client
	// retries), a delay stalls it.
	RPCSend = "rpc.send"
	// Server-side operation sites, one per Server method, all sharing the
	// "server." prefix so a single "server.*" fault covers every call.
	ServerLookup       = "server.lookup"
	ServerReadPage     = "server.readpage"
	ServerWritePage    = "server.writepage"
	ServerAllocate     = "server.allocate"
	ServerAllocateNear = "server.allocatenear"
	ServerUpdateObject = "server.update"
	ServerNumPages     = "server.numpages"
	ServerLookupBatch  = "server.lookupbatch"
	ServerReadPages    = "server.readpages"
	// ServerAll is the prefix pattern matching every server operation.
	ServerAll = "server.*"
	// CoherencePush guards the server's delivery of one coherence
	// invalidation frame to one interested client: an armed error drops
	// the callback (the client never learns its cached page changed and
	// must be saved by its lease), a Delay stalls delivery.
	CoherencePush = "coherence.push"
	// CoherenceAck guards the client just before it acknowledges an
	// applied invalidation: a drop leaves the server's commit waiting on
	// the ack until its timeout.
	CoherenceAck = "coherence.ack"
)

// ErrInjected is the default error injected by a triggering fault; armed
// faults with a nil Err fail with an error wrapping it.
var ErrInjected = errors.New("faultpoint: injected fault")

// Fault describes one deterministic fault against a site.
type Fault struct {
	// Site is the site name to match: exact, or a prefix pattern ending in
	// '*' ("server.*").
	Site string
	// After is the number of matching calls that pass through unharmed
	// before the fault starts triggering (fail-after-N-calls).
	After int
	// Times bounds how often the fault triggers; 0 means every matching
	// call after the first After calls.
	Times int
	// Err is the injected error; nil means an error wrapping ErrInjected.
	Err error
	// TornWrite makes CheckWrite sites write only TornAt bytes of the
	// payload before failing (a torn write at byte K).
	TornWrite bool
	TornAt    int
	// Skip makes CheckSync sites silently skip the operation (a lost
	// fsync: the call reports success, the data was never made durable).
	Skip bool
	// Delay stalls the operation before it proceeds (or fails).
	Delay time.Duration
}

// Armed is a live fault registration.
type Armed struct {
	f     Fault
	calls atomic.Int64
	fired atomic.Int64
	off   atomic.Bool
}

// Fired returns how many times the fault has triggered.
func (a *Armed) Fired() int { return int(a.fired.Load()) }

// Calls returns how many matching calls the fault has observed.
func (a *Armed) Calls() int { return int(a.calls.Load()) }

// Disarm removes the fault. Idempotent.
func (a *Armed) Disarm() {
	if a.off.CompareAndSwap(false, true) {
		mu.Lock()
		for i, x := range armed {
			if x == a {
				armed = append(armed[:i], armed[i+1:]...)
				break
			}
		}
		mu.Unlock()
		active.Add(-1)
	}
}

var (
	active atomic.Int64 // number of armed faults; 0 = all sites inert
	mu     sync.Mutex
	armed  []*Armed
)

// Arm registers a fault and returns its handle (call Disarm, or defer
// Reset from a test).
func Arm(f Fault) *Armed {
	a := &Armed{f: f}
	mu.Lock()
	armed = append(armed, a)
	mu.Unlock()
	active.Add(1)
	return a
}

// Reset disarms every fault.
func Reset() {
	mu.Lock()
	all := armed
	armed = nil
	mu.Unlock()
	for _, a := range all {
		if a.off.CompareAndSwap(false, true) {
			active.Add(-1)
		}
	}
}

// matches reports whether the armed fault covers the site.
func (a *Armed) matches(site string) bool {
	p := a.f.Site
	if n := len(p); n > 0 && p[n-1] == '*' {
		return len(site) >= n-1 && site[:n-1] == p[:n-1]
	}
	return p == site
}

// trigger counts one matching call and reports whether the fault fires.
func (a *Armed) trigger() bool {
	n := a.calls.Add(1)
	if n <= int64(a.f.After) {
		return false
	}
	if a.f.Times > 0 && a.fired.Load() >= int64(a.f.Times) {
		return false
	}
	a.fired.Add(1)
	return true
}

// injectedErr builds the error a triggering fault returns.
func (a *Armed) injectedErr(site string) error {
	if a.f.Err != nil {
		return a.f.Err
	}
	return fmt.Errorf("%w at %s (call %d)", ErrInjected, site, a.calls.Load())
}

// outcome is the slow-path evaluation shared by the Check variants.
// It returns the first triggering fault, after counting the call against
// every matching fault, and applies any delay.
func outcome(site string) *Armed {
	mu.Lock()
	var hit *Armed
	var delay time.Duration
	for _, a := range armed {
		if !a.matches(site) {
			continue
		}
		if a.trigger() && hit == nil {
			hit = a
			delay = a.f.Delay
		}
	}
	mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return hit
}

// Check evaluates a plain fault site: it returns the injected error when an
// armed fault triggers, nil otherwise. When nothing is armed anywhere the
// call is a single atomic load.
func Check(site string) error {
	if active.Load() == 0 {
		return nil
	}
	return checkSlow(site)
}

func checkSlow(site string) error {
	if a := outcome(site); a != nil && !a.f.Skip {
		return a.injectedErr(site)
	}
	return nil
}

// CheckSync evaluates a sync/flush site. skip=true means the operation must
// be silently skipped while reporting success (a lost fsync); a non-nil err
// means the operation fails.
func CheckSync(site string) (skip bool, err error) {
	if active.Load() == 0 {
		return false, nil
	}
	a := outcome(site)
	if a == nil {
		return false, nil
	}
	if a.f.Skip {
		return true, nil
	}
	return false, a.injectedErr(site)
}

// CheckWrite evaluates a write site for a payload of n bytes. It returns
// how many bytes the caller should actually write and the error to return
// afterwards: (n, nil) when no fault triggers, (k, err) for a torn write at
// byte k, and (0, err) for a write that fails outright.
func CheckWrite(site string, n int) (int, error) {
	if active.Load() == 0 {
		return n, nil
	}
	a := outcome(site)
	if a == nil {
		return n, nil
	}
	if a.f.TornWrite {
		k := a.f.TornAt
		if k > n {
			k = n
		}
		return k, a.injectedErr(site)
	}
	return 0, a.injectedErr(site)
}
