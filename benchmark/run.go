package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"gom/internal/metrics"
)

// usage is the process-wide resource reading taken around a segment.
type usage struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	gcCPU      float64 // seconds
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(gc)
	u := usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
	if gc[0].Value.Kind() == rtmetrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

func (u usage) since(prev usage) usage {
	return usage{
		cpu:        u.cpu - prev.cpu,
		mallocs:    u.mallocs - prev.mallocs,
		allocBytes: u.allocBytes - prev.allocBytes,
		gcPause:    u.gcPause - prev.gcPause,
		gcCPU:      u.gcCPU - prev.gcCPU,
	}
}

// segResult is everything measured over one segment: the operations of
// each lane, and the before/after deltas of every registry and of the
// recorder's RPC totals.
type segResult struct {
	seg     *segment
	elapsed time.Duration
	lanes   [][]opResult
	server  metrics.Snapshot
	clients []metrics.Snapshot
	rpcN    [numRPCKinds]int64
	rpcNS   [numRPCKinds]int64
	use     usage
}

// windowResult is one measured window.
type windowResult struct {
	segs []*segResult
}

func (w *windowResult) each(fn func(s *segResult, lane int, r *opResult)) {
	for _, s := range w.segs {
		for li, ops := range s.lanes {
			for i := range ops {
				fn(s, li, &ops[i])
			}
		}
	}
}

// resultBytes is the heap the window's own operation results occupy.
func (w *windowResult) resultBytes() uint64 {
	var n uint64
	for _, s := range w.segs {
		for _, ops := range s.lanes {
			n += uint64(cap(ops)) * uint64(unsafe.Sizeof(opResult{}))
		}
	}
	return n
}

// warmUp fills the caches before the first window: the first segment's
// prepare step, then each lane's untimed operations.
func warmUp(segs []*segment) error {
	if p := segs[0].prepare; p != nil {
		if err := p(); err != nil {
			return err
		}
	}
	for _, l := range segs[0].lanes {
		for i := 0; i < l.warm; i++ {
			o := l.next(0)
			res, err := l.c.runOp(&o, l.spec, 0)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if res.failed || res.wrong {
				return fmt.Errorf("warm-up: %s operation failed", kindNames[o.kind])
			}
		}
	}
	return nil
}

// runWindow measures one window of dur. maxOps > 0 ends every segment
// after that many operations instead of on time (the determinism tests
// count events, not seconds).
func runWindow(st *stack, segs []*segment, dur time.Duration, maxOps int) (*windowResult, error) {
	w := &windowResult{}
	for _, seg := range segs {
		if seg.prepare != nil {
			if err := seg.prepare(); err != nil {
				return nil, err
			}
		}
		r, err := runSegment(st, seg, time.Duration(float64(dur)*seg.share), maxOps)
		if err != nil {
			return nil, err
		}
		w.segs = append(w.segs, r)
	}
	return w, nil
}

func runSegment(st *stack, seg *segment, dur time.Duration, maxOps int) (*segResult, error) {
	r := &segResult{seg: seg}
	srvBefore := st.reg.Snapshot()
	cliBefore := make([]metrics.Snapshot, len(st.clients))
	for i, c := range st.clients {
		cliBefore[i] = c.reg.Snapshot()
		for k := range r.rpcN {
			r.rpcN[k] -= c.rec.rpcCount[k]
			r.rpcNS[k] -= c.rec.rpcNS[k]
		}
	}
	useBefore := readUsage()

	start := time.Now()
	lanes, err := seg.run(start, dur, maxOps)
	r.lanes = lanes
	r.elapsed = time.Since(start)

	r.use = readUsage().since(useBefore)
	r.server = st.reg.Snapshot().Delta(srvBefore)
	for i, c := range st.clients {
		r.clients = append(r.clients, c.reg.Snapshot().Delta(cliBefore[i]))
		for k := range r.rpcN {
			r.rpcN[k] += c.rec.rpcCount[k]
			r.rpcNS[k] += c.rec.rpcNS[k]
		}
	}
	return r, err
}

// run drives the segment's lanes from the calling goroutine, one operation
// in flight at a time: each lane in turn runs its burst of operations, round
// and round until the time is up (or, with maxOps > 0, that many operations
// are done). One driver goroutine is a choice for steadiness. With a
// goroutine per client on this two-core shared host the latencies measured
// the hypervisor waking the second virtual CPU, not the program: the same
// code ran 8-13 % apart from run to run, and up to 38 % on the acceptance
// driver. The interleaving is a function of the seed, not of the scheduler.
func (seg *segment) run(start time.Time, dur time.Duration, maxOps int) ([][]opResult, error) {
	out := make([][]opResult, len(seg.lanes))
	for n := 0; ; {
		for i, l := range seg.lanes {
			for b := 0; b < max(l.burst, 1); b++ {
				at := time.Since(start)
				if at >= dur || (maxOps > 0 && n >= maxOps) {
					return out, nil
				}
				o := l.next(float64(at) / float64(dur))
				res, err := l.c.runOp(&o, l.spec, at)
				out[i] = append(out[i], res)
				if err != nil {
					return out, err
				}
				n++
			}
		}
	}
}
