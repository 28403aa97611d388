package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestCounterAndRPCNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	for op := RPCOp(0); op < NumRPCOps; op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("rpc op %d has no name", op)
		}
		if seen[name] {
			t.Fatalf("rpc name %q collides", name)
		}
		seen[name] = true
	}
	if Counter(-1).String() == "" || Counter(999).String() == "" {
		t.Error("out-of-range counters must still render")
	}
	if RPCOp(999).String() == "" {
		t.Error("out-of-range rpc op must still render")
	}
}

// TestNilRegistryIsSafe is the contract the hot-path hooks rely on: every
// method of a nil *Registry is a no-op.
func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Inc(CtrPageFault)
	r.AddN(CtrRead, 5)
	r.ObserveRPC(RPCLookup, time.Millisecond)
	r.RPCSince(RPCLookup, r.Now())
	if !r.Now().IsZero() {
		t.Error("nil registry Now() must be zero so RPCSince skips the observation")
	}
	if r.Count(CtrPageFault) != 0 {
		t.Error("nil registry Count != 0")
	}
	if got := r.Snapshot(); got.Count(CtrRead) != 0 {
		t.Error("nil registry snapshot not zero")
	}
	if r.String() != "null" {
		t.Errorf("nil registry String() = %q", r.String())
	}
}

func TestCountersAndSnapshotDelta(t *testing.T) {
	r := New()
	r.Inc(CtrPageFault)
	r.AddN(CtrBufferHit, 10)
	before := r.Snapshot()
	r.Inc(CtrPageFault)
	r.AddN(CtrBufferHit, 4)
	r.ObserveRPC(RPCReadPage, 100*time.Microsecond)
	d := r.Snapshot().Delta(before)
	if d.Count(CtrPageFault) != 1 {
		t.Errorf("delta page_fault = %d, want 1", d.Count(CtrPageFault))
	}
	if d.Count(CtrBufferHit) != 4 {
		t.Errorf("delta buffer_hit = %d, want 4", d.Count(CtrBufferHit))
	}
	if d.RPC[RPCReadPage].Count != 1 {
		t.Errorf("delta read_page count = %d, want 1", d.RPC[RPCReadPage].Count)
	}
	if r.Count(CtrPageFault) != 2 {
		t.Errorf("page_fault = %d, want 2", r.Count(CtrPageFault))
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(time.Nanosecond)           // bit length 1
	h.Observe(1000 * time.Nanosecond)    // 1µs, bit length 10
	h.Observe(100 * time.Millisecond)    // bit length 27
	h.Observe(-time.Second)              // clamped to 0
	h.Observe(10 * 365 * 24 * time.Hour) // clamps into last bucket
	s := h.snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Buckets[0] != 2 { // the two zeros
		t.Errorf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	if s.Buckets[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[10] != 1 {
		t.Errorf("bucket 10 = %d, want 1", s.Buckets[10])
	}
	if s.Buckets[27] != 1 {
		t.Errorf("bucket 27 = %d, want 1", s.Buckets[27])
	}
	if s.Buckets[NumHistBuckets-1] != 1 {
		t.Errorf("last bucket = %d, want 1", s.Buckets[NumHistBuckets-1])
	}
	if q := s.Quantile(0); q > time.Nanosecond {
		t.Errorf("p0 = %v, want <= 1ns", q)
	}
	if q := s.Quantile(0.99); q < 100*time.Millisecond {
		t.Errorf("p99 = %v, want >= 100ms", q)
	}
	if m := s.Mean(); m <= 0 {
		t.Errorf("mean = %v, want > 0", m)
	}
	var empty HistSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestJSONDumpAndHTTP(t *testing.T) {
	r := New()
	r.Inc(CtrObjectFault)
	r.ObserveRPC(RPCLookup, 250*time.Microsecond)

	var v struct {
		UptimeSeconds float64          `json:"uptime_seconds"`
		Counters      map[string]int64 `json:"counters"`
		RPC           map[string]struct {
			Count  int64 `json:"count"`
			MeanNS int64 `json:"mean_ns"`
		} `json:"rpc"`
	}
	if err := json.Unmarshal([]byte(r.String()), &v); err != nil {
		t.Fatalf("String() is not JSON: %v\n%s", err, r.String())
	}
	if v.Counters["object_fault"] != 1 {
		t.Errorf("object_fault = %d, want 1", v.Counters["object_fault"])
	}
	if v.RPC["lookup"].Count != 1 || v.RPC["lookup"].MeanNS <= 0 {
		t.Errorf("rpc lookup = %+v", v.RPC["lookup"])
	}

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("handler body is not JSON: %v", err)
	}
}

func TestSnapshotStringAndFormat(t *testing.T) {
	r := New()
	var empty Snapshot
	if empty.String() != "(idle)" {
		t.Errorf("empty string = %q", empty.String())
	}
	r.Inc(CtrBufferHit)
	r.ObserveRPC(RPCReadPage, time.Millisecond)
	s := r.Snapshot()
	if got := s.String(); got == "(idle)" {
		t.Errorf("non-empty snapshot rendered idle: %q", got)
	}
	if got := s.Format(); got == "" {
		t.Error("Format() empty")
	}
	if got := (Snapshot{}).Format(); got != "  (no events recorded)\n" {
		t.Errorf("empty Format() = %q", got)
	}
}

// TestConcurrentUse exercises the registry from many goroutines; run with
// -race this doubles as the data-race proof for the atomic counters and
// the histograms.
func TestConcurrentUse(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Inc(CtrBufferHit)
				r.ObserveRPC(RPCLookup, time.Duration(i)*time.Nanosecond)
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.String()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Count(CtrBufferHit); got != workers*perWorker {
		t.Errorf("buffer_hit = %d, want %d", got, workers*perWorker)
	}
	if got := r.Snapshot().RPC[RPCLookup].Count; got != workers*perWorker {
		t.Errorf("rpc lookup count = %d, want %d", got, workers*perWorker)
	}
}
