package main

import (
	"fmt"
	"testing"
	"time"

	"gom/internal/metrics"
)

const testParts = 1000

// TestSameSeedSameInputs: the operation streams are a function of the seed
// alone, and differ between seeds.
func TestSameSeedSameInputs(t *testing.T) {
	hashes := func(seed int64) string {
		var all string
		for _, wl := range workloads {
			st, err := newStack(testParts, seed, wl.buffers, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, seg := range wl.plan(st, seed) {
				for _, l := range seg.lanes {
					for i := 0; i < 400; i++ {
						l.next(float64(i) / 400)
					}
					all += fmt.Sprintf("%s:%016x ", wl.name, l.hash)
				}
			}
			st.close()
		}
		return all
	}
	a, b, c := hashes(5), hashes(5), hashes(6)
	if a != b {
		t.Errorf("same seed, different inputs:\n%s\n%s", a, b)
	}
	if a == c {
		t.Error("different seeds drew identical inputs")
	}
}

// TestOneClientWorkloadsRepeatExactly: with one client and a fixed number
// of operations, fault and displacement counts are a function of the seed.
func TestOneClientWorkloadsRepeatExactly(t *testing.T) {
	for _, name := range []string{"hot_traverse", "shift_traverse"} {
		wl := findWorkload(name)
		buffers := wl.buffers
		if name == "shift_traverse" {
			buffers = []int{12} // a quarter of the small test base, as 250 is of the real one
		}
		counts := func() [3]int64 {
			st, err := newStack(testParts, 3, buffers, true)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			segs := wl.plan(st, 3)
			if err := warmUp(segs); err != nil {
				t.Fatal(err)
			}
			if _, err := runWindow(st, segs, time.Minute, 12); err != nil {
				t.Fatal(err)
			}
			s := st.clients[0].reg.Snapshot()
			return [3]int64{s.Count(metrics.CtrPageFault), s.Count(metrics.CtrObjectFault), s.Count(metrics.CtrDisplacement)}
		}
		a, b := counts(), counts()
		if a != b {
			t.Errorf("%s: page faults, object faults, displacements %v then %v", name, a, b)
		}
		if name == "shift_traverse" && (a[0] == 0 || a[2] == 0) {
			t.Errorf("shift_traverse with a quarter-size buffer faulted %d pages and displaced %d objects", a[0], a[2])
		}
	}
}

// TestLanesTakeTurns: the two clients of a workload are driven by one
// goroutine, burst by burst, so no two operations overlap and the
// interleaving is fixed: ten updates, one snapshot read, ten updates, ...
func TestLanesTakeTurns(t *testing.T) {
	wl := findWorkload("write_beside_snapshot")
	st, err := newStack(testParts, 4, wl.buffers, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	w, err := runWindow(st, wl.plan(st, 4), time.Minute, 2*updatesPerSnap+3)
	if err != nil {
		t.Fatal(err)
	}
	lanes := w.segs[0].lanes
	if len(lanes[0]) != 2*updatesPerSnap+1 || len(lanes[1]) != 2 {
		t.Fatalf("%d updates and %d snapshot reads, want %d and 2", len(lanes[0]), len(lanes[1]), 2*updatesPerSnap+1)
	}
	for i, r := range lanes[1] {
		before, after := lanes[0][(i+1)*updatesPerSnap-1], lanes[0][(i+1)*updatesPerSnap]
		if r.kind != kindSnapRead || r.at < before.at+before.latency || after.at < r.at+r.latency {
			t.Errorf("snapshot read %d at %v+%v is not between update %d (%v+%v) and the next (%v)",
				i, r.at, r.latency, (i+1)*updatesPerSnap-1, before.at, before.latency, after.at)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload, traced and untraced, on a
// small base with short windows: all metrics present, no failures, output
// checks pass, the phases reconcile, and each workload stresses the layers
// it was chosen for and bypasses the others.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(wl, testParts, 2, 0.4, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %s", wl.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.CheckErr)
			}
			m := rep.Metrics
			if !traced {
				for _, d := range endToEnd {
					if v, ok := m[d.name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", wl.name, d.name, v)
					}
				}
				continue
			}
			// Layers off a workload's path are simply not computed and
			// print as 0; a computed name nobody declared is a typo.
			declared := map[string]bool{}
			for _, d := range perLayer {
				declared[d.name] = true
			}
			for name := range m {
				if !declared[name] {
					t.Errorf("%s: computed metric %s is not declared in perLayer", wl.name, name)
				}
			}
			if r := m["phase.reconcile_ratio"]; r < 0.98 || r > 1.02 {
				t.Errorf("%s: phases sum to %.4f of the latency", wl.name, r)
			}
			for _, zero := range []string{"coherence.ack_timeouts", "coherence.lease_expired", "coherence.push_dropped", "rpc.errors", "e2e.fail_share"} {
				if m[zero] != 0 {
					t.Errorf("%s: %s = %v", wl.name, zero, m[zero])
				}
			}
			switch wl.name {
			case "hot_traverse":
				if m["rpc.calls_per_op"] != 2 || m["buffer.page_faults_per_op"] != 0 {
					t.Errorf("hot_traverse: %v RPCs and %v page faults per op, want 2 and 0", m["rpc.calls_per_op"], m["buffer.page_faults_per_op"])
				}
				if m["core.nos_gap"] == 0 || m["rot.lookups_per_visit"] == 0 {
					t.Error("hot_traverse: NOS half not reported")
				}
			case "shift_traverse":
				if m["wal.commits"] != 0 || m["wal.fsyncs_per_commit"] != 0 {
					t.Error("shift_traverse: read-only commits reached the log")
				}
			case "write_beside_snapshot":
				if m["wal.commits"] == 0 || m["versions.snapshot_reads_per_op"] == 0 || m["coherence.inval_per_commit"] != 0 {
					t.Errorf("write_beside_snapshot: commits %v, snapshot reads/op %v, invalidations/commit %v",
						m["wal.commits"], m["versions.snapshot_reads_per_op"], m["coherence.inval_per_commit"])
				}
			case "oo1_mix":
				if m["coherence.inval_per_commit"] <= 0 {
					t.Error("oo1_mix: no invalidation pushed")
				}
			}
		}
	}
}
