package metrics

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestScoreboard(t *testing.T) {
	var nilReg *Registry
	if s := nilReg.Score("Part", "Part.partOf"); s != nil {
		t.Fatal("nil registry returned a score handle")
	}
	var nilScore *Score
	nilScore.Inc(ScoreDeref) // must not panic
	nilScore.SetStrategy("EDS")
	if nilScore.Count(ScoreDeref) != 0 || nilScore.Strategy() != "" {
		t.Fatal("nil score not inert")
	}

	r := New()
	a := r.Score("Part", "Part.partOf")
	b := r.Score("Part", "Part.partOf")
	if a != b {
		t.Fatal("same (type, context) produced distinct handles")
	}
	a.SetStrategy("EDS")
	a.Inc(ScoreDeref)
	a.Add(ScoreSwizzle, 3)
	c := r.Score("Connection", "Part.to")
	c.Inc(ScoreFault)

	rows := r.ScoreRows()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Sorted by (context, type): Part.partOf < Part.to.
	if rows[0].Context != "Part.partOf" || rows[0].Strategy != "EDS" {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[0].Count(ScoreSwizzle) != 3 || rows[0].Events["deref"] != 1 {
		t.Fatalf("row 0 counts = %+v", rows[0])
	}
}

func TestRPCIOAndDelta(t *testing.T) {
	r := New()
	prev := r.Snapshot()
	r.RPCFrame(RPCReadPage, true, 100)
	r.RPCFrame(RPCReadPage, true, 50)
	r.RPCFrame(RPCReadPage, false, 4096)
	r.Inc(CtrPageFault)

	cur, d := r.DeltaSince(prev)
	if d.RPCFrames[1][RPCReadPage] != 2 || d.RPCBytes[1][RPCReadPage] != 150 {
		t.Fatalf("out delta = %d frames / %d bytes", d.RPCFrames[1][RPCReadPage], d.RPCBytes[1][RPCReadPage])
	}
	if d.RPCFrames[0][RPCReadPage] != 1 || d.RPCBytes[0][RPCReadPage] != 4096 {
		t.Fatalf("in delta wrong")
	}
	if Delta(cur, prev).Count(CtrPageFault) != 1 {
		t.Fatal("package-level Delta disagrees")
	}
	if f, by := r.RPCIO(RPCReadPage, true); f != 2 || by != 150 {
		t.Fatalf("RPCIO = %d/%d", f, by)
	}
}

func TestOpenMetricsExposition(t *testing.T) {
	r := New()
	r.Inc(CtrObjectFault)
	r.ObserveRPC(RPCReadPage, 3*time.Millisecond)
	r.RPCFrame(RPCReadPage, true, 64)
	r.Score("Part", "Part.partOf").Inc(ScoreDeref)
	r.Score("Part", "Part.partOf").SetStrategy("EDS")
	r.SetDriftSource(func() []Drift {
		return []Drift{{Context: "Part.partOf", Installed: "EDS", Best: "LIS", Ratio: 1.8}}
	})

	rec := httptest.NewRecorder()
	r.OpenMetrics().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE gom_events counter",
		`gom_events_total{event="object_fault"} 1`,
		"# TYPE gom_rpc_latency_seconds histogram",
		`gom_rpc_latency_seconds_bucket{op="read_page",le="+Inf"} 1`,
		`gom_rpc_latency_seconds_count{op="read_page"} 1`,
		`gom_rpc_frames_total{op="read_page",direction="out"} 1`,
		`gom_rpc_bytes_total{op="read_page",direction="out"} 64`,
		`gom_scoreboard_events_total{context="Part.partOf",type="Part",strategy="EDS",event="deref"} 1`,
		`gom_advisor_cost_ratio{context="Part.partOf",installed="EDS",best="LIS"} 1.8`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q\n%s", want, body)
		}
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatal("exposition does not end with # EOF")
	}

	// Histogram buckets must be cumulative and non-decreasing.
	var last int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "gom_rpc_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}

	// A nil registry still emits a well-formed (empty) exposition.
	var nilReg *Registry
	var sb strings.Builder
	if err := nilReg.WriteOpenMetrics(&sb); err != nil || sb.String() != "# EOF\n" {
		t.Fatalf("nil exposition = %q, %v", sb.String(), err)
	}
}
