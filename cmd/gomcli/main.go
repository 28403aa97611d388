// Command gomcli manages persisted OO1 object bases: generate, inspect,
// resolve OIDs, and serve pages over TCP to remote object managers.
//
// Usage:
//
//	gomcli gen  -parts 20000 -locality 0.9 -clustering ty|pc -out base.gom
//	gomcli info base.gom
//	gomcli lookup -oid 1:42 base.gom
//	gomcli serve -addr :7070 base.gom
//	gomcli serve -tx -addr :7070 base.gom     # transactional (2PL + abort)
//	gomcli serve -tx -wal walDir base.gom     # durable: group-committed fsync-on-commit
//	gomcli serve -tx -coherence base.gom      # callback/lease cache coherence
//	gomcli serve -debug :7071 base.gom        # expose /debug/metrics + pprof
//	gomcli traverse -depth 5 -strategy LIS base.gom
//	gomcli traverse -addr 127.0.0.1:7070 -snapshot base.gom  # MVCC snapshot read over TCP
//	gomcli stats -addr 127.0.0.1:7071         # live stats of a running server
//	gomcli stats -workload traversal base.gom # run locally, dump the registry
//	gomcli trace dump -addr 127.0.0.1:7071    # retained server spans as Chrome trace JSON
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"gom/internal/core"
	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/oo1"
	"gom/internal/server"
	"gom/internal/sim"
	"gom/internal/storage"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "lookup":
		err = cmdLookup(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "traverse":
		err = cmdTraverse(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gomcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gomcli gen|info|lookup|serve|traverse|stats|trace [flags] [file]")
	os.Exit(2)
}

func loadDB(path string) (*oo1.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return oo1.Load(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	parts := fs.Int("parts", 20000, "number of Parts")
	locality := fs.Float64("locality", 0.9, "topological locality [0,1]")
	clustering := fs.String("clustering", "ty", "ty (type-based) or pc (Part-to-Connection)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "base.gom", "output file")
	fs.Parse(args)

	cfg := oo1.DefaultConfig().Scaled(*parts).WithLocality(*locality)
	cfg.Seed = *seed
	if strings.EqualFold(*clustering, "pc") {
		cfg = cfg.WithClustering(oo1.ClusterPartConn)
	}
	db, err := oo1.Generate(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	fmt.Printf("generated %v: %d pages (%.1f MB) -> %s\n",
		cfg, db.NumPages(), float64(db.SizeBytes())/(1<<20), *out)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: need a base file")
	}
	db, err := loadDB(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Println(db.Cfg)
	fmt.Printf("pages: %d (%.1f MB), objects in POT: %d\n",
		db.NumPages(), float64(db.SizeBytes())/(1<<20), db.Srv.Manager().POT().Len())
	fmt.Printf("extents: parts %v, connections %v\n", db.PartExtent, db.ConnExtent)
	fmt.Println("types:")
	for _, t := range db.Schema.Types() {
		var fields []string
		for _, f := range t.Fields() {
			d := f.Name + ":" + f.Kind.String()
			if f.Target != "" {
				d += "->" + f.Target
			}
			fields = append(fields, d)
		}
		fmt.Printf("  %-24s [%s]\n", t.Name, strings.Join(fields, ", "))
	}
	return nil
}

func parseOID(s string) (oid.OID, error) {
	vol, serial, ok := strings.Cut(s, ":")
	if !ok {
		return oid.Nil, fmt.Errorf("OID must be volume:serial, got %q", s)
	}
	v, err := strconv.ParseUint(vol, 10, 16)
	if err != nil {
		return oid.Nil, err
	}
	n, err := strconv.ParseUint(serial, 10, 64)
	if err != nil {
		return oid.Nil, err
	}
	return oid.New(uint16(v), n)
}

func cmdLookup(args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	oidStr := fs.String("oid", "", "object id, volume:serial")
	partID := fs.Int("part-id", 0, "select by part-id through the B-tree index")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("lookup: need a base file")
	}
	db, err := loadDB(fs.Arg(0))
	if err != nil {
		return err
	}
	var id oid.OID
	switch {
	case *partID > 0:
		ids := db.PartIndex.Search(int64(*partID))
		if len(ids) == 0 {
			return fmt.Errorf("no part with id %d", *partID)
		}
		id = ids[0]
	case *oidStr != "":
		if id, err = parseOID(*oidStr); err != nil {
			return err
		}
	default:
		return fmt.Errorf("lookup: need -oid or -part-id")
	}
	addr, err := db.Srv.Lookup(id)
	if err != nil {
		return err
	}
	rec, _, err := db.Srv.Manager().Read(id)
	if err != nil {
		return err
	}
	obj, err := object.Decode(db.Schema, id, rec)
	if err != nil {
		return err
	}
	fmt.Printf("%v at page %v slot %d (%d bytes persistent)\n", obj, addr.Page, addr.Slot, len(rec))
	for i, f := range obj.Type.Fields() {
		switch f.Kind {
		case object.KindInt:
			fmt.Printf("  %-10s = %d\n", f.Name, obj.Int(i))
		case object.KindString:
			fmt.Printf("  %-10s = %q\n", f.Name, obj.Str(i))
		case object.KindRef:
			fmt.Printf("  %-10s -> %v\n", f.Name, obj.Ref(i).TargetOID())
		case object.KindRefSet:
			fmt.Printf("  %-10s = {%d refs}\n", f.Name, obj.SetLen(i))
		}
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	tx := fs.Bool("tx", false, "serve transactionally (per-connection Begin/Commit/Abort, strict 2PL)")
	lockTimeout := fs.Duration("lock-timeout", 2*time.Second, "lock wait timeout (deadlock resolution, with -tx)")
	walDir := fs.String("wal", "", "write-ahead-log directory: commits fsync a log there and survive crashes (requires -tx); existing durable state in the directory supersedes the base file")
	snapshotCap := fs.Int64("snapshot-cap", 0, "retained version-store bytes cap: new snapshot transactions are refused while more history is pinned (0 = unbounded; requires -tx)")
	coherent := fs.Bool("coherence", false, "enable callback/lease cache coherence: reads register per-page interest and commits push invalidation callbacks to the other interested clients (requires -tx)")
	coherenceCap := fs.Int("coherence-cap", 0, "interest-table bound in (page, client) registrations; oldest registrations past it are revoked (0 = default 64Ki; requires -coherence)")
	ackTimeout := fs.Duration("ack-timeout", 0, "how long a commit waits for invalidation acknowledgements — also the lease horizon clients must stay under (0 = default 2s; requires -coherence)")
	debug := fs.String("debug", "", "also serve /debug/metrics, /healthz, /debug/slow, /debug/vars and /debug/pprof on this address")
	slowMS := fs.Float64("slow-ms", 0, "slow-op threshold in milliseconds: commits and reads at or over it are logged to stderr and retained at /debug/slow (0 = off; requires -debug)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("serve: need a base file")
	}
	if *walDir != "" && !*tx {
		return fmt.Errorf("serve: -wal requires -tx (durability is a property of the transaction layer)")
	}
	if *coherent && !*tx {
		return fmt.Errorf("serve: -coherence requires -tx (every write a coherent server pushes is a commit)")
	}
	if *snapshotCap != 0 && !*tx {
		return fmt.Errorf("serve: -snapshot-cap requires -tx (snapshots are a property of the transaction layer)")
	}
	if *slowMS != 0 && *debug == "" {
		return fmt.Errorf("serve: -slow-ms requires -debug (the slow-op log is served at /debug/slow)")
	}
	if !*coherent && (*coherenceCap != 0 || *ackTimeout != 0) {
		return fmt.Errorf("serve: -coherence-cap and -ack-timeout tune the coherence protocol and require -coherence")
	}
	if *slowMS < 0 {
		return fmt.Errorf("serve: -slow-ms must be >= 0")
	}
	db, err := loadDB(fs.Arg(0))
	if err != nil {
		return err
	}
	mgr := db.Srv.Manager()
	if *walDir != "" {
		recovered, w, info, err := storage.RecoverManager(*walDir, 1)
		if err != nil {
			return err
		}
		defer w.Close()
		if info.FromSnapshot || info.Records > 0 {
			// The directory already holds a durable base; it is newer than
			// any file the operator passed.
			mgr = recovered
			fmt.Printf("recovered object base from %s: %v\n", *walDir, info)
		} else {
			// Fresh directory: seed it with a checkpoint of the loaded base
			// so every later restart recovers without the base file.
			mgr.AttachWAL(w)
			if err := w.Checkpoint(mgr); err != nil {
				return err
			}
			fmt.Printf("seeded %s with a snapshot of %s (epoch %d)\n", *walDir, fs.Arg(0), w.Epoch())
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *snapshotCap > 0 {
		mgr.Versions().SetCapBytes(*snapshotCap)
	}
	var srv *server.TCPServer
	if *tx {
		srv = server.ServeTx(ln, server.NewTxServer(mgr, *lockTimeout))
		fmt.Printf("serving %v transactionally on %v (ctrl-c to stop)\n", db.Cfg, srv.Addr())
	} else {
		srv = server.Serve(ln, mgr)
		fmt.Printf("serving %v on %v (ctrl-c to stop)\n", db.Cfg, srv.Addr())
	}
	if *coherent {
		if err := srv.EnableCoherence(server.CoherenceOptions{
			MaxEntries: *coherenceCap,
			AckTimeout: *ackTimeout,
		}); err != nil {
			srv.Close()
			return err
		}
		fmt.Printf("cache coherence enabled (interest cap %d, ack timeout %v)\n", *coherenceCap, *ackTimeout)
	}
	if *debug != "" {
		reg := metrics.New()
		if *slowMS > 0 {
			threshold := time.Duration(*slowMS * float64(time.Millisecond))
			logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
			reg.SetSlowLog(metrics.NewSlowLog(threshold, metrics.DefaultSlowLogDepth, logger))
			fmt.Printf("slow-op log armed at %v (stderr + /debug/slow)\n", threshold)
		}
		srv.SetMetrics(reg)
		// Server-side span ring for /debug/trace. Spans record only for
		// requests whose client shipped a sampled context, so this is
		// free for untraced traffic.
		srv.SetTracer(trace.New(1, trace.DefaultDepth))
		dbgAddr, err := srv.StartDebug(*debug)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Printf("debug endpoint on http://%v/debug/metrics (also /metrics, /healthz, /debug/slow, /debug/trace, /debug/vars, /debug/pprof)\n", dbgAddr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return srv.Close()
}

func cmdTraverse(args []string) error {
	fs := flag.NewFlagSet("traverse", flag.ExitOnError)
	depth := fs.Int("depth", 5, "traversal depth")
	strategy := fs.String("strategy", "LIS", "NOS|EDS|EIS|LDS|LIS")
	pages := fs.Int("pages", 1000, "page buffer frames")
	seed := fs.Int64("seed", 7, "operation seed")
	addr := fs.String("addr", "", "run against a remote page server (host:port) instead of in-process")
	snapshot := fs.Bool("snapshot", false, "with -addr against a -tx server: read from an MVCC snapshot (never blocks behind writers)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("traverse: need a base file")
	}
	if *snapshot && *addr == "" {
		return fmt.Errorf("traverse: -snapshot requires -addr")
	}
	st, err := swizzle.Parse(strings.ToUpper(*strategy))
	if err != nil {
		return err
	}
	db, err := loadDB(fs.Arg(0))
	if err != nil {
		return err
	}
	opt := core.Options{PageBufferPages: *pages}
	if *addr != "" {
		// The base file supplies only the schema and extent roots; every
		// page fault goes over the wire.
		cl, err := server.Dial(*addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		opt.Server = cl
		if *snapshot {
			_, readLSN, err := cl.BeginSnapshotTx()
			if err != nil {
				return err
			}
			defer cl.CommitTx()
			fmt.Printf("snapshot read at LSN %d\n", readLSN)
		}
	}
	c, err := oo1.NewClient(db, opt, *seed)
	if err != nil {
		return err
	}
	c.Begin(swizzle.NewSpec(st.String(), st))
	visits, err := c.Traversal(*depth)
	if err != nil {
		return err
	}
	m := c.OM.Meter()
	fmt.Printf("traversal depth %d under %v: %d part visits\n", *depth, st, visits)
	fmt.Printf("simulated time: %.1f ms, page faults: %d, object faults: %d\n",
		m.Micros()/1000, m.Count(sim.CntPageFault), m.Count(sim.CntObjectFault))
	fmt.Printf("swizzles: %d direct, %d indirect; descriptors live: %d\n",
		m.Count(sim.CntSwizzleDirect), m.Count(sim.CntSwizzleIndirect), c.OM.DescriptorCount())
	return nil
}

// cmdStats reports observability counters. With -addr it asks a running
// `gomcli serve -debug` endpoint for its live registry snapshot; with a
// base file it runs a workload locally with a registry installed and dumps
// the full report.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "", "debug address of a running server (host:port); omit for local mode")
	raw := fs.Bool("raw", false, "remote mode: print the raw JSON snapshot instead of the rendered report")
	workload := fs.String("workload", "traversal", "local mode: traversal|lookups")
	depth := fs.Int("depth", 4, "traversal depth (local mode)")
	ops := fs.Int("ops", 500, "lookup count (local mode)")
	strategy := fs.String("strategy", "LIS", "NOS|EDS|EIS|LDS|LIS (local mode)")
	pages := fs.Int("pages", 1000, "page buffer frames (local mode)")
	seed := fs.Int64("seed", 7, "operation seed (local mode)")
	fs.Parse(args)

	if *addr != "" {
		return statsRemote(*addr, *raw)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: need -addr or a base file")
	}
	st, err := swizzle.Parse(strings.ToUpper(*strategy))
	if err != nil {
		return err
	}
	db, err := loadDB(fs.Arg(0))
	if err != nil {
		return err
	}
	reg := metrics.New()
	db.Srv.SetMetrics(reg)
	c, err := oo1.NewClient(db, core.Options{PageBufferPages: *pages, Metrics: reg}, *seed)
	if err != nil {
		return err
	}
	c.Begin(swizzle.NewSpec(st.String(), st))
	switch *workload {
	case "traversal":
		if _, err := c.Traversal(*depth); err != nil {
			return err
		}
	case "lookups":
		if err := c.LookupN(*ops); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}
	fmt.Printf("%s workload under %v:\n", *workload, st)
	fmt.Print(c.OM.Metrics().Snapshot().Format())
	return nil
}

// cmdTrace exports request traces. `dump` scrapes the retained span
// rings of a running `gomcli serve -debug` server as Chrome trace_event
// JSON (load the file in chrome://tracing or Perfetto).
func cmdTrace(args []string) error {
	if len(args) < 1 || args[0] != "dump" {
		return fmt.Errorf("trace: usage: gomcli trace dump -addr HOST:PORT [-out FILE]")
	}
	fs := flag.NewFlagSet("trace dump", flag.ExitOnError)
	addr := fs.String("addr", "", "debug address of a running server (host:port)")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args[1:])
	if *addr == "" {
		return fmt.Errorf("trace dump: need -addr")
	}
	url := "http://" + *addr + "/debug/trace"
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace dump: %s returned %s", url, resp.Status)
	}
	if !json.Valid(body) {
		return fmt.Errorf("trace dump: %s returned invalid JSON", url)
	}
	if *out == "" {
		_, err = os.Stdout.Write(body)
		return err
	}
	return os.WriteFile(*out, body, 0o644)
}

// statsRemote fetches the JSON registry snapshot from a serve -debug
// endpoint and renders it as a human-readable report (raw re-indents
// the JSON unrendered instead).
func statsRemote(addr string, raw bool) error {
	url := "http://" + addr + "/debug/metrics"
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stats: %s returned %s", url, resp.Status)
	}
	if raw {
		var buf bytes.Buffer
		if err := json.Indent(&buf, body, "", "  "); err != nil {
			return fmt.Errorf("stats: bad JSON from %s: %w", url, err)
		}
		buf.WriteByte('\n')
		_, err = buf.WriteTo(os.Stdout)
		return err
	}
	var snap remoteSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("stats: bad JSON from %s: %w", url, err)
	}
	renderRemote(os.Stdout, snap)
	return nil
}

// remoteSnapshot mirrors the JSON shape of /debug/metrics (the fields
// the rendered report uses; unknown fields are ignored).
type remoteSnapshot struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Counters      map[string]int64       `json:"counters"`
	Gauges        map[string]remoteGauge `json:"gauges"`
	RPC           map[string]remoteHist  `json:"rpc"`
	Hists         map[string]remoteHist  `json:"hists"`
}

type remoteGauge struct {
	Value int64 `json:"value"`
	Peak  int64 `json:"peak"`
}

type remoteHist struct {
	Count       int64  `json:"count"`
	SumNS       int64  `json:"sum_ns"`
	MeanNS      int64  `json:"mean_ns"`
	P50NS       int64  `json:"p50_ns"`
	P99NS       int64  `json:"p99_ns"`
	TailTraceID uint64 `json:"tail_trace_id"`
}

// countHists names the histograms whose observations are plain counts,
// not durations (their *_ns JSON fields hold raw values).
var countHists = map[string]bool{"wal_batch_size": true}

// renderRemote prints a remote snapshot the way local `stats` does:
// sorted non-zero counters, gauges with peaks, then latency tables. A
// histogram's tail exemplar — the trace ID last observed in its highest
// populated bucket — is appended when present, ready for
// `gomcli trace dump`.
func renderRemote(w io.Writer, s remoteSnapshot) {
	fmt.Fprintf(w, "server up %s\n", (time.Duration(s.UptimeSeconds * float64(time.Second))).Round(time.Second))
	for _, name := range sortedNonZero(s.Counters, func(v int64) bool { return v != 0 }) {
		fmt.Fprintf(w, "  %-26s %12d\n", name, s.Counters[name])
	}
	for _, name := range sortedNonZero(s.Gauges, func(g remoteGauge) bool { return g.Value != 0 || g.Peak != 0 }) {
		g := s.Gauges[name]
		fmt.Fprintf(w, "  gauge{%-20s %12d   peak %d\n", name+"}", g.Value, g.Peak)
	}
	for _, name := range sortedNonZero(s.RPC, func(h remoteHist) bool { return h.Count != 0 }) {
		fmt.Fprintf(w, "  server_rpc{%-14s %12d   mean %-10v p50 %-10v p99 %v%s\n",
			name+"}", s.RPC[name].Count,
			time.Duration(s.RPC[name].MeanNS).Round(100*time.Nanosecond),
			time.Duration(s.RPC[name].P50NS), time.Duration(s.RPC[name].P99NS),
			tailRef(s.RPC[name]))
	}
	for _, name := range sortedNonZero(s.Hists, func(h remoteHist) bool { return h.Count != 0 }) {
		h := s.Hists[name]
		if countHists[name] {
			fmt.Fprintf(w, "  hist{%-20s %12d   mean %-10.1f p50 %-10d p99 %d%s\n",
				name+"}", h.Count, float64(h.SumNS)/float64(h.Count), h.P50NS, h.P99NS, tailRef(h))
			continue
		}
		fmt.Fprintf(w, "  hist{%-20s %12d   mean %-10v p50 %-10v p99 %v%s\n",
			name+"}", h.Count,
			time.Duration(h.MeanNS).Round(100*time.Nanosecond),
			time.Duration(h.P50NS), time.Duration(h.P99NS), tailRef(h))
	}
}

// tailRef renders a histogram's tail exemplar as a suffix, or nothing.
func tailRef(h remoteHist) string {
	if h.TailTraceID == 0 {
		return ""
	}
	return fmt.Sprintf("   tail trace %d", h.TailTraceID)
}

// sortedNonZero returns the map's keys with live values, sorted.
func sortedNonZero[V any](m map[string]V, live func(V) bool) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if live(v) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
