package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
)

func init() {
	register("readpath", "Server read path: lock-free zero-copy frames at increasing client concurrency", runReadpath)
}

// runReadpath measures the server-side ReadPage response path end to end
// (request decode, page read, response frame assembly) at increasing
// client concurrency: readers do one atomic load and the published
// immutable image, with the page's directory, is attached to a pooled
// scatter-gather frame by reference. No lock, no copy.
//
// The cells run in process (no sockets), so the numbers isolate the
// server path itself rather than kernel TCP behavior; the TCP writer
// ships the same frames with writev.
func runReadpath(o Opts) (*Result, error) {
	dur := 400 * time.Millisecond
	if o.Quick {
		dur = 100 * time.Millisecond
	}
	counts := []int{1, 2, 4, 8}
	if o.Quick {
		counts = []int{1, 8}
	}
	if o.Workers > 0 {
		counts = []int{o.Workers}
	}

	// An in-memory base with enough pages that concurrent readers spread
	// across cache lines instead of all hitting one slot.
	mgr := storage.NewManager(1)
	if err := mgr.CreateSegment(1); err != nil {
		return nil, err
	}
	rec := make([]byte, 512)
	for i := range rec {
		rec[i] = byte(i)
	}
	for i := 0; i < 512; i++ {
		if _, _, err := mgr.Allocate(1, rec); err != nil {
			return nil, err
		}
	}
	npages, err := mgr.Disk().NumPages(1)
	if err != nil {
		return nil, err
	}
	backend := server.NewLocal(mgr)

	res := &Result{
		ID:     "readpath",
		Title:  "Server ReadPage path: lock-free zero-copy frames",
		Header: []string{"clients", "reads/s", "MB/s"},
		Notes: []string{
			fmt.Sprintf("in-process response-path cells over %d pages, %v per cell; no sockets, so the numbers isolate the server path", npages, dur),
			"atomic-load page borrow attached to a pooled scatter-gather frame (no lock, no copy)",
		},
	}

	for _, clients := range counts {
		cell, err := readpathCell(backend, npages, clients, dur, o.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%.0f", cell.readsPerSec),
			fmt.Sprintf("%.0f", cell.mbPerSec),
		})
	}
	return res, nil
}

type readpathCellResult struct {
	readsPerSec float64
	mbPerSec    float64
}

// readpathCell runs one cell: `clients` goroutines hammer
// ServeReadPageFrame over random pages for dur, with borrowed (unsealed)
// page reads as in production.
func readpathCell(backend *server.Local, npages int, clients int, dur time.Duration, seed int64) (readpathCellResult, error) {
	prevSeal := storage.SetSealReads(false)
	defer storage.SetSealReads(prevSeal)

	var (
		wg       sync.WaitGroup
		reads    atomic.Int64
		bytes    atomic.Int64
		errMu    sync.Mutex
		firstErr error
		stop     = make(chan struct{})
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			req := make([]byte, 8)
			var n, nbytes int64
			for {
				select {
				case <-stop:
					reads.Add(n)
					bytes.Add(nbytes)
					return
				default:
				}
				pid := page.NewPageID(1, uint64(rng.Intn(npages)))
				binary.LittleEndian.PutUint64(req, uint64(pid))
				wire, err := server.ServeReadPageFrame(backend, req)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					reads.Add(n)
					bytes.Add(nbytes)
					return
				}
				n++
				nbytes += int64(wire)
			}
		}(i)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if firstErr != nil {
		return readpathCellResult{}, firstErr
	}
	return readpathCellResult{
		readsPerSec: float64(reads.Load()) / elapsed,
		mbPerSec:    float64(bytes.Load()) / elapsed / (1 << 20),
	}, nil
}
