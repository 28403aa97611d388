package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"gom/internal/swizzle"
)

// numParts is the OO1 standard base: 20,000 parts and 60,000 connections,
// ≈1,005 pages including the extents.
const numParts = 20000

// workload is one traffic mix against a fresh full stack.
type workload struct {
	name string
	why  string
	// buffers is PageBufferPages per client; its length is the client
	// count (at most nproc = 2).
	buffers []int
	// primary and secondary select the two transactions whose p50 gates.
	primary, secondary kindSel
	// plan draws the workload's generators from the seed. Everything the
	// program will be asked to do comes out of the RNGs created here.
	plan func(st *stack, seed int64) []*segment
}

// segment is one timed stretch of a window. Only hot_traverse has two
// (EDS then NOS); a segment's prepare step is untimed.
type segment struct {
	share   float64 // of the window's seconds
	slices  int     // noise-control slices the segment is cut into
	prepare func() error
	lanes   []*lane
}

// lane is one client's load within a segment. Every lane is a closed loop,
// and the lanes of a segment take turns on one driver goroutine (see
// segment.run): burst operations of this lane, then the next lane's.
type lane struct {
	c     *client
	spec  *swizzle.Spec
	burst int // operations per turn; 0 means 1
	// gen draws the next operation; pos is the position in the window in
	// [0,1).
	gen func(pos float64) op
	// warm is how many untimed operations fill the caches before the
	// first window.
	warm int

	hash   uint64 // FNV-1a over the first hashedOps generated operations
	hashed int
}

const hashedOps = 256

// next draws one operation and folds it into the lane's input hash, which
// is how "same seed ⇒ same inputs" is checked.
func (l *lane) next(pos float64) op {
	o := l.gen(pos)
	if l.hashed < hashedOps {
		h := fnv.New64a()
		fmt.Fprintf(h, "%x|%d|%d|%v|%v", l.hash, o.kind, o.depth, o.parts, o.conns)
		l.hash = h.Sum64()
		l.hashed++
	}
	return o
}

// window is the stretch of the part-id range (wrapping) operations draw
// their parts from. Moving start is the locality shift of He & Darmont: a
// static hot set would flatter every cache in the stack.
type window struct {
	n     int // parts in the base
	width int
	start int
}

func newWindow(st *stack, start int) *window {
	n := len(st.db.Parts)
	return &window{n: n, width: int(float64(n) * windowFrac), start: start}
}

func (w *window) part(r *rand.Rand) int32 { return int32((w.start + r.Intn(w.width)) % w.n) }

// jump moves the window to a seeded position that does not overlap the
// current one, so every shift is a complete one: a partial overlap would
// make how much of the cached state survives a property of the seed.
func (w *window) jump(r *rand.Rand) {
	w.start = (w.start + w.width + r.Intn(w.n-2*w.width)) % w.n
}

func drawParts(o *op, w *window, r *rand.Rand) {
	for i := range o.parts {
		o.parts[i] = w.part(r)
	}
}

func drawConns(o *op, w *window, r *rand.Rand) {
	o.conns[0] = [2]int32{w.part(r), int32(r.Intn(3))}
	for {
		o.conns[1] = [2]int32{w.part(r), int32(r.Intn(3))}
		if o.conns[1] != o.conns[0] {
			return
		}
	}
}

// Workload parameters. The issue sized shift_traverse with a jump every 500
// operations; it jumps every 150 so that a run sees some forty shifts and
// the post-shift statistic is a median over that many.
const (
	hotDepth       = 7
	shiftDepth     = 4
	shiftEvery     = 150
	postShiftOps   = 20 // operations after a jump that count as "post-shift"
	windowFrac     = 0.10
	updatesPerSnap = 10 // client A's updates per snapshot read of client B (write_beside_snapshot)
	mixLookupPct   = 80
	mixTraversePct = 10 // the remaining 10 % are updates (client A) or lookups (B)
)

var workloads = []*workload{
	{
		name:    "hot_traverse",
		why:     "whole base resident, depth-7 traversals under EDS then NOS: object manager, ROT and swizzling do the work, wire and storage almost none",
		buffers: []int{6000},
		// EDS half, NOS half.
		primary:   kindSel{seg: 0, kind: kindTraverse},
		secondary: kindSel{seg: 1, kind: kindTraverse},
		plan:      planHotTraverse,
	},
	{
		name:    "shift_traverse",
		why:     "buffer holds a quarter of the base and the hot 10% of parts jumps every 150 traversals: page and object faults, round trips and displacement dominate",
		buffers: []int{250},
		// All traversals; the first postShiftOps after each jump.
		primary:   kindSel{kind: kindTraverse},
		secondary: kindSel{kind: kindTraverse, postShift: true},
		plan:      planShiftTraverse,
	},
	{
		name:      "write_beside_snapshot",
		why:       "ten update transactions of client A, then one snapshot read of client B, in turn: write-back, X-locks, WAL and version store work while MVCC reads share the storage layers",
		buffers:   []int{1000, 1000},
		primary:   kindSel{kind: kindUpdate},
		secondary: kindSel{kind: kindSnapRead},
		plan:      planWriteBesideSnapshot,
	},
	{
		name:    "oo1_mix",
		why:     "two clients in turn, lookups, traversals and (client A) updates with a mid-run locality jump: every layer incl. invalidation push, ack wait and re-fault is on the path",
		buffers: []int{1000, 1000},
		// The update p50 (a twentieth of the operations, fsync-bound) is
		// reported as e2e.update_p50_us.
		primary:   kindSel{kind: kindLookup},
		secondary: kindSel{kind: kindTraverse},
		plan:      planMix,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// laneRNG derives an independent stream per (seed, purpose).
func laneRNG(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + purpose))
}

func planHotTraverse(st *stack, seed int64) []*segment {
	c := st.clients[0]
	rng := laneRNG(seed, 1)
	gen := func(float64) op {
		o := op{kind: kindTraverse, depth: hotDepth}
		o.parts[0] = int32(rng.Intn(len(st.db.Parts)))
		return o
	}
	seg := func(label string, s swizzle.Strategy) *segment {
		spec := swizzle.NewSpec("hot-"+label, s)
		return &segment{
			share: 0.5, slices: 12,
			// Touch every part so the whole base is resident and every
			// reference is in the representation the strategy wants; a
			// strategy switch marks all objects stale and would otherwise
			// be paid for inside the timed window.
			prepare: func() error { return c.touchAll(spec) },
			lanes:   []*lane{{c: c, spec: spec, gen: gen}},
		}
	}
	return []*segment{seg("eds", swizzle.EDS), seg("nos", swizzle.NOS)}
}

func planShiftTraverse(st *stack, seed int64) []*segment {
	rng, jumps := laneRNG(seed, 1), laneRNG(seed, 2)
	win := newWindow(st, jumps.Intn(len(st.db.Parts)))
	n := 0
	gen := func(float64) op {
		if n > 0 && n%shiftEvery == 0 {
			win.jump(jumps)
		}
		o := op{kind: kindTraverse, depth: shiftDepth, postShift: n >= shiftEvery && n%shiftEvery < postShiftOps}
		o.parts[0] = win.part(rng)
		n++
		return o
	}
	return []*segment{{
		share: 1, slices: 24,
		lanes: []*lane{{c: st.clients[0], spec: swizzle.NewSpec("shift", swizzle.LIS), gen: gen, warm: shiftEvery}},
	}}
}

func planWriteBesideSnapshot(st *stack, seed int64) []*segment {
	spec := swizzle.NewSpec("wbs", swizzle.LIS)
	// Both clients work on the first 10 % of the parts.
	win := newWindow(st, 0)
	wrng, rrng := laneRNG(seed, 1), laneRNG(seed, 2)
	writer := &lane{c: st.clients[0], spec: spec, warm: 200, burst: updatesPerSnap, gen: func(float64) op {
		o := op{kind: kindUpdate}
		drawConns(&o, win, wrng)
		return o
	}}
	reader := &lane{c: st.clients[1], spec: spec, warm: 50, gen: func(float64) op {
		o := op{kind: kindSnapRead}
		drawParts(&o, win, rrng)
		return o
	}}
	return []*segment{{share: 1, slices: 24, lanes: []*lane{writer, reader}}}
}

func planMix(st *stack, seed int64) []*segment {
	spec := swizzle.NewSpec("mix", swizzle.LIS)
	// One window for both clients; it jumps once, at mid-run.
	pos := laneRNG(seed, 9)
	shared := newWindow(st, pos.Intn(len(st.db.Parts)))
	first := shared.start
	shared.jump(pos)
	second := shared.start
	mk := func(c *client, purpose int64, updates bool) *lane {
		rng := laneRNG(seed, purpose)
		win := newWindow(st, first)
		return &lane{c: c, spec: spec, warm: 200, gen: func(p float64) op {
			win.start = first
			if p >= 0.5 {
				win.start = second
			}
			var o op
			switch pct := rng.Intn(100); {
			case pct >= mixLookupPct+mixTraversePct && updates:
				o.kind = kindUpdate
				drawConns(&o, win, rng)
			case pct >= mixLookupPct && pct < mixLookupPct+mixTraversePct:
				o.kind, o.depth = kindTraverse, shiftDepth
				o.parts[0] = win.part(rng)
			default:
				o.kind = kindLookup
				drawParts(&o, win, rng)
			}
			return o
		}}
	}
	return []*segment{{share: 1, slices: 24, lanes: []*lane{
		mk(st.clients[0], 1, true),
		mk(st.clients[1], 2, false),
	}}}
}

// touchAll reads every part in one transaction under the given spec.
func (c *client) touchAll(spec *swizzle.Spec) error {
	if err := c.rpc.BeginTx(); err != nil {
		return err
	}
	c.om.BeginApplication(spec)
	for i := range c.db.Parts {
		if _, err := c.traversal(i, 1); err != nil {
			return fmt.Errorf("warm-up: part %d: %w", i, err)
		}
	}
	if err := c.om.Commit(); err != nil {
		return err
	}
	return c.rpc.CommitTx()
}
