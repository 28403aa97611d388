package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
)

func init() {
	register("obsoverhead", "Observability overhead: flight-recorder instrumentation on vs off", runObsOverhead)
}

// runObsOverhead prices the flight recorder added on top of the
// always-on metrics layer: each cell runs the same closed loop in two
// modes — off = the production baseline (registry installed, per-RPC
// latency accounting live, but no tracing, no phase exemplars, no slow
// log), on = the full flight recorder armed (sampled trace IDs stamping
// histogram exemplars, the slow-op threshold gate running per request) —
// and reports the throughput cost of arming it. The modes alternate in
// short interleaved slices over shared fixtures so clock-frequency and
// cache drift hits both sides equally.
//
//   - read: the zero-copy ServeReadPageFrame hot loop bracketed by the
//     pipelined data path's per-RPC accounting. This is the acceptance
//     row: the flight recorder must cost <= 3% here — the slow gate
//     reuses the latency the histogram already measured (two atomic
//     loads, no extra clock read) and the exemplar stamp lands only on
//     the traced fraction (1/1024, mirroring the tracer's sampling), so
//     the contended per-bucket store stays off the common path.
//   - commit: the durable group-commit pipeline with a real fsync per
//     flush. Informative: the phase timestamps, histogram observations,
//     and exemplar stamps ride on fsync-scale latencies, so the relative
//     cost shows the instrumentation is lost in device noise.
func runObsOverhead(o Opts) (*Result, error) {
	readSlices, commitSlices := 8, 6
	readSlice, commitSlice := 50*time.Millisecond, 80*time.Millisecond
	if o.Quick {
		readSlices, commitSlices = 4, 2
		readSlice, commitSlice = 25*time.Millisecond, 60*time.Millisecond
	}
	workers := 4
	if o.Workers > 0 {
		workers = o.Workers
	}

	res := &Result{
		ID:     "obsoverhead",
		Title:  "Observability overhead: instrumentation on vs off",
		Header: []string{"cell", "off ops/s", "on ops/s", "overhead", "budget"},
		Notes: []string{
			fmt.Sprintf("%d workers per cell; off = always-on metrics only (production baseline), on = + sampled tracing (1/1024), exemplar stamps, armed slow-op gate", workers),
			fmt.Sprintf("modes alternate in interleaved slices (read %d+%d, commit %d+%d) over shared fixtures so drift cancels", readSlices, readSlices, commitSlices, commitSlices),
			"read = in-process zero-copy ServeReadPageFrame loop with the pipelined path's per-RPC accounting (the acceptance row, budget 3%)",
			"commit = durable group commit with a real fsync per flush; phase histograms, exemplars and slow-log gate are all live in the on cell",
		},
	}

	readOff, readOn, err := obsReadPair(workers, readSlices, readSlice, o.Seed)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, obsRow("read", readOff, readOn, "<= 3%"))

	commitOff, commitOn, err := obsCommitPair(workers, commitSlices, commitSlice)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, obsRow("commit", commitOff, commitOn, "informative"))
	return res, nil
}

func obsRow(cell string, off, on float64, budget string) []string {
	return []string{
		cell,
		fmt.Sprintf("%.0f", off),
		fmt.Sprintf("%.0f", on),
		fmt.Sprintf("%+.1f%%", (off-on)/off*100),
		budget,
	}
}

// obsReadPair is the hot read loop of the readpath experiment's zerocopy
// configuration, bracketed per request the way the pipelined server path
// brackets a data frame: latency clocked into the per-op histogram in
// both modes (the always-on baseline), plus — in the instrumented mode —
// the slow-op threshold gate on every request and an exemplar-stamping
// trace ID on the sampled fraction, exactly what the server's data
// goroutine pays once the flight recorder is armed. A shared page store
// serves 2×slices alternating slices; each mode's throughput is its
// total ops over its total measured time.
func obsReadPair(clients, slices int, slice time.Duration, seed int64) (off, on float64, err error) {
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		return 0, 0, err
	}
	rec := make([]byte, 512)
	for i := 0; i < 256; i++ {
		if _, _, err := mgr.Allocate(1, rec); err != nil {
			return 0, 0, err
		}
	}
	npages, err := mgr.Disk().NumPages(1)
	if err != nil {
		return 0, 0, err
	}
	reg := metrics.New()
	mgr.Disk().SetMetrics(reg)
	slow := metrics.NewSlowLog(10*time.Second, 64, nil)
	backend := server.NewLocal(mgr)

	runSlice := func(instrumented bool, round int) (float64, error) {
		if instrumented {
			reg.SetSlowLog(slow)
		} else {
			reg.SetSlowLog(nil)
		}
		var (
			wg       sync.WaitGroup
			reads    atomic.Int64
			errMu    sync.Mutex
			firstErr error
			stop     = make(chan struct{})
		)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(round)*104729 + int64(i)*7919))
				req := make([]byte, 8)
				var n int64
				for {
					select {
					case <-stop:
						reads.Add(n)
						return
					default:
					}
					pid := page.NewPageID(1, uint64(rng.Intn(npages)))
					binary.LittleEndian.PutUint64(req, uint64(pid))
					start := reg.Now()
					_, serr := server.ServeReadPageFrame(backend, req)
					if instrumented {
						traceID := uint64(0)
						if n%1024 == 0 {
							traceID = uint64(n + 1)
						}
						d := reg.RPCSinceTrace(metrics.RPCReadPage, start, traceID)
						sl := reg.Slow()
						if t := sl.Threshold(); t > 0 && d >= t {
							sl.Note(metrics.SlowEntry{Op: "read_page", DurNS: int64(d)})
						}
					} else {
						reg.RPCSince(metrics.RPCReadPage, start)
					}
					if serr != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = serr
						}
						errMu.Unlock()
						reads.Add(n)
						return
					}
					n++
				}
			}(i)
		}
		start := time.Now()
		time.Sleep(slice)
		close(stop)
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(reads.Load()) / time.Since(start).Seconds(), nil
	}

	var offSum, onSum float64
	for round := 0; round < slices; round++ {
		r, err := runSlice(false, round)
		if err != nil {
			return 0, 0, err
		}
		offSum += r
		r, err = runSlice(true, round)
		if err != nil {
			return 0, 0, err
		}
		onSum += r
	}
	return offSum / float64(slices), onSum / float64(slices), nil
}

// obsCommitPair is the group-commit closed loop (one small redo record
// plus a durable commit per transaction) run against two WALs in the
// same directory tree — one bare, one with the commit pipeline's
// instrumentation fully armed: registry installed, every commit carrying
// a trace ID so the phase histograms stamp exemplars, and a slow log
// whose threshold gate runs per commit without ever matching. Slices
// alternate between the two WALs so device-speed drift cancels.
func obsCommitPair(workers, slices int, slice time.Duration) (off, on float64, err error) {
	dir, err := os.MkdirTemp("", "gom-obsoverhead-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)

	mkWAL := func(sub string, instrumented bool) (*storage.WAL, error) {
		d := dir + "/" + sub
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, err
		}
		w, err := storage.CreateWAL(d)
		if err != nil {
			return nil, err
		}
		if instrumented {
			reg := metrics.New()
			reg.SetSlowLog(metrics.NewSlowLog(10*time.Second, 64, nil))
			w.SetMetrics(reg)
		}
		w.EnableGroupCommit(storage.GroupCommitOptions{})
		return w, nil
	}
	walOff, err := mkWAL("off", false)
	if err != nil {
		return 0, 0, err
	}
	defer walOff.Close()
	walOn, err := mkWAL("on", true)
	if err != nil {
		return 0, 0, err
	}
	defer walOn.Close()

	var txSeq atomic.Uint64
	runSlice := func(w *storage.WAL, instrumented bool) (float64, error) {
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			firstErr error
			total    int64
		)
		start := time.Now()
		stop := start.Add(slice)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fail := func(err error) {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
				id, err := oid.New(1, uint64(i+1))
				if err != nil {
					fail(err)
					return
				}
				addr := storage.PAddr{Page: page.NewPageID(1, uint64(i+1)), Slot: 0}
				n := int64(0)
				for time.Now().Before(stop) {
					tx := txSeq.Add(1)
					if err := w.AppendPotPut(tx, id, addr); err != nil {
						fail(err)
						return
					}
					traceID := uint64(0)
					if instrumented {
						traceID = tx
					}
					if _, err := w.CommitDurablePhases(tx, traceID); err != nil {
						fail(err)
						return
					}
					n++
				}
				mu.Lock()
				total += n
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(total) / time.Since(start).Seconds(), nil
	}

	var offSum, onSum float64
	for round := 0; round < slices; round++ {
		r, err := runSlice(walOff, false)
		if err != nil {
			return 0, 0, err
		}
		offSum += r
		r, err = runSlice(walOn, true)
		if err != nil {
			return 0, 0, err
		}
		onSum += r
	}
	return offSum / float64(slices), onSum / float64(slices), nil
}
