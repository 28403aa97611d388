package main

import (
	"testing"

	"gom/internal/metrics"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// Every optional capability core.New, core.OM.SetTrace and the buffer
// pool's readahead type-assert their Server for. The decorator must
// forward all of them: a missing OnInvalidate, for one, would switch
// coherence off without a word.
var (
	_ server.Server        = (*rpcRecorder)(nil)
	_ server.BatchLookuper = (*rpcRecorder)(nil)
	_ server.PageRunReader = (*rpcRecorder)(nil)
	_ interface {
		HasCoherence() bool
		OnInvalidate(func(epoch uint64, pids []page.PageID))
		OnLeaseExpired(func())
	} = (*rpcRecorder)(nil)
	_ interface {
		SetTrace(*trace.Tracer, func() trace.Context)
	} = (*rpcRecorder)(nil)
)

// TestDecoratorKeepsCoherence checks the wiring end to end: a reader
// behind the decorator holds a page, a writer commits an update to it, and
// the reader must have been called back and have dropped the page.
func TestDecoratorKeepsCoherence(t *testing.T) {
	st, err := newStack(300, 1, []int{100, 100}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	reader, writer := st.clients[0], st.clients[1]
	if !reader.rpc.HasCoherence() {
		t.Fatal("connection did not negotiate coherence")
	}
	spec := swizzle.NewSpec("t", swizzle.LIS)
	read := op{kind: kindTraverse, depth: 1}
	upd := op{kind: kindUpdate, conns: [2][2]int32{{0, 0}, {0, 1}}}
	for _, step := range []struct {
		c *client
		o *op
	}{{reader, &read}, {writer, &upd}, {reader, &read}} {
		res, err := step.c.runOp(step.o, spec, 0)
		if err != nil || res.failed || res.wrong {
			t.Fatalf("%s: err=%v failed=%v wrong=%v", kindNames[step.o.kind], err, res.failed, res.wrong)
		}
	}
	snap := reader.reg.Snapshot()
	if snap.Count(metrics.CtrCoherenceInvalRecv) == 0 || snap.Count(metrics.CtrCoherenceInvalApplied) == 0 {
		t.Errorf("reader saw %d invalidations and applied %d pages; the decorator dropped the callback wiring",
			snap.Count(metrics.CtrCoherenceInvalRecv), snap.Count(metrics.CtrCoherenceInvalApplied))
	}
	if err := checkOutputs(st); err != nil {
		t.Error(err)
	}
}

// TestRecorderSpans checks the shape of what a traced operation records:
// one root span, five phase spans under it, RPC spans under their phase,
// all sharing the operation id.
func TestRecorderSpans(t *testing.T) {
	st, err := newStack(300, 1, []int{100}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	st.setTraced(true)
	c := st.clients[0]
	o := op{kind: kindTraverse, depth: 2}
	if _, err := c.runOp(&o, swizzle.NewSpec("t", swizzle.LIS), 0); err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]trace.Record{}
	var root trace.Record
	phases, rpcs := 0, 0
	for _, s := range c.rec.spans {
		byID[s.SpanID] = s
		if s.Parent == 0 {
			root = s
		}
	}
	for _, s := range c.rec.spans {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s has op id %d, root has %d", s.Name, s.TraceID, root.TraceID)
		}
		switch parent := byID[s.Parent]; {
		case s.SpanID == root.SpanID:
		case parent.SpanID == root.SpanID:
			phases++
		case byID[parent.Parent].SpanID == root.SpanID:
			rpcs++
			if s.Start < parent.Start || s.Start+s.Dur > parent.Start+parent.Dur {
				t.Errorf("%s is not inside its parent %s", s.Name, parent.Name)
			}
		default:
			t.Errorf("span %s hangs off nothing", s.Name)
		}
	}
	if root.Name != "op.traverse" || phases != numPhases {
		t.Errorf("root %q with %d phase spans, want op.traverse with %d", root.Name, phases, numPhases)
	}
	// tx_begin, tx_commit, and the faults of a cold depth-2 traversal.
	if rpcs < 4 || int64(rpcs) != c.rec.rpcCount[rpcLookup]+c.rec.rpcCount[rpcReadPage]+c.rec.rpcCount[rpcTxBegin]+c.rec.rpcCount[rpcTxCommit] {
		t.Errorf("%d RPC spans, counters say %v", rpcs, c.rec.rpcCount)
	}
	if c.rec.tracer.Len() == 0 && spanSample == 1 {
		t.Error("the program's own tracer recorded nothing")
	}
}
