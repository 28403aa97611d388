package core

import (
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gom/internal/metrics"
	"gom/internal/object"
	"gom/internal/oid"
	"gom/internal/page"
	"gom/internal/server"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// TestSnapshotSeesCommitOnResidentObject: a reader under snapshot
// transactions keeps a part resident from one snapshot to the next — its
// dereference never asks the buffer pool, let alone the server — while a
// writer commits a change to it in between. Each new snapshot must read the
// committed value: the snapshot begin of a coherent connection names the
// changed page.
func TestSnapshotSeesCommitOnResidentObject(t *testing.T) { snapshotSeesCommit(t, true) }

// TestSnapshotSeesCommitWithoutCoherence is the same against a server that
// never ran EnableCoherence: nothing can say what changed, so SetReadEpoch
// with a newer read point drops the whole cache.
func TestSnapshotSeesCommitWithoutCoherence(t *testing.T) { snapshotSeesCommit(t, false) }

func snapshotSeesCommit(t *testing.T, coherent bool) {
	b := buildBase(t, 30)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(b.srv.Manager(), 2*time.Second))
	defer srv.Close()
	if coherent {
		srv.EnableCoherence(server.CoherenceOptions{})
	}
	dial := func(reg *metrics.Registry) (*server.Client, *OM) {
		t.Helper()
		c, err := server.DialWith(srv.Addr().String(), server.DialOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if c.HasCoherence() != coherent {
			t.Fatalf("HasCoherence = %v, want %v", c.HasCoherence(), coherent)
		}
		om, err := New(Options{Server: c, Schema: b.schema, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return c, om
	}
	reg := metrics.New()
	reader, omR := dial(reg)
	writer, omW := dial(nil)

	write := func(built int64) {
		t.Helper()
		if _, err := writer.BeginTx(); err != nil {
			t.Fatal(err)
		}
		omW.BeginApplication(appSpec(swizzle.LDS))
		v := omW.NewVar("w", b.part)
		if err := omW.Load(v, b.parts[3]); err != nil {
			t.Fatal(err)
		}
		if err := omW.WriteInt(v, "built", built); err != nil {
			t.Fatal(err)
		}
		if err := omW.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := writer.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}
	read := func() int64 {
		t.Helper()
		_, readLSN, err := reader.BeginSnapshotTx()
		if err != nil {
			t.Fatal(err)
		}
		omR.SetReadEpoch(readLSN)
		omR.BeginApplication(appSpec(swizzle.EDS))
		v := omR.NewVar("r", b.part)
		if err := omR.Load(v, b.parts[3]); err != nil {
			t.Fatal(err)
		}
		built, err := omR.ReadInt(v, "built")
		if err != nil {
			t.Fatal(err)
		}
		if err := omR.Commit(); err != nil { // the part stays resident
			t.Fatal(err)
		}
		if err := reader.CommitTx(); err != nil {
			t.Fatal(err)
		}
		return built
	}

	// The first commit takes the stable point off 0, so the reader's first
	// snapshot is the only one without a previous read point to name.
	write(1994)
	if got := read(); got != 1994 {
		t.Fatalf("first snapshot reads built = %d, want 1994", got)
	}
	for built := int64(1995); built < 1998; built++ {
		if omR.Resident() == 0 {
			t.Fatal("the reader holds nothing resident between its snapshots")
		}
		write(built)
		if got := read(); got != built {
			t.Errorf("a snapshot begun after the commit of built = %d reads %d", built, got)
		}
	}
	mustVerify(t, omR)

	snap := omR.Metrics().Snapshot()
	lists, pages, all := snap.Count(metrics.CtrCoherenceBeginList), snap.Count(metrics.CtrCoherenceBeginPages), snap.Count(metrics.CtrCoherenceBeginAll)
	if !coherent {
		if lists+pages+all != 0 {
			t.Errorf("without coherence: %d lists, %d pages, %d whole-cache answers; want none", lists, pages, all)
		}
		return
	}
	if all != 1 || lists != 3 || pages < 3 {
		t.Errorf("%d whole-cache answers, %d lists naming %d pages; want 1 (the first snapshot), 3, and at least 3", all, lists, pages)
	}
	if got := snap.Count(metrics.CtrCoherenceLeaseExpired); got != 0 {
		t.Errorf("coherence_lease_expired = %d, want 0", got)
	}
	if got := snap.Count(metrics.CtrBufferStaleRefresh); got != 0 {
		t.Errorf("buffer_stale_refresh = %d, want 0", got)
	}
}

// TestSnapshotBeginDifferential is the race the change log exists for: two
// writers commit sum-preserving transfers between sixteen parts on eight
// pages (and abort the ones that deadlock), two readers keep their caches
// from one snapshot to the next, and a third dials a fresh connection for
// every snapshot — it caches nothing, so it is the specification. Every
// snapshot of every reader must see the invariant sum, and two snapshots
// with the same read-LSN the same values. A third of the transfers also
// grow or shrink their records, so parts relocate onto pages other parts
// live on: the snapshot pages the readers fault carry their directories,
// and a directory naming a part that moved after the read point must not.
func TestSnapshotBeginDifferential(t *testing.T) {
	const (
		pages     = 8
		transfers = 40 // a writer
		seed      = 24
	)
	b := buildBase(t, 600)
	var accounts []oid.OID
	perPage := map[page.PageID]int{}
	for _, id := range b.parts {
		addr, err := b.srv.Manager().Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if perPage[addr.Page] < 2 && (perPage[addr.Page] > 0 || len(perPage) < pages) {
			perPage[addr.Page]++
			accounts = append(accounts, id)
		}
	}
	if len(accounts) != 2*pages {
		t.Fatalf("%d accounts on %d pages, want %d on %d", len(accounts), len(perPage), 2*pages, pages)
	}
	const sum = 2 * pages * 1993 // buildBase gives every part built = 1993
	before := make([]storage.PAddr, len(accounts))
	for i, id := range accounts {
		before[i], _ = b.srv.Manager().Lookup(id)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.ServeTx(ln, server.NewTxServer(b.srv.Manager(), 20*time.Millisecond))
	defer srv.Close()
	// The writers dial before EnableCoherence and so register no interest:
	// two writers that call each other back at commit stall on each other's
	// acknowledgement (ROADMAP item 1(a)), which is not what this test is
	// about. Their commits are logged all the same.
	var writerConns [2]*server.Client
	for w := range writerConns {
		if writerConns[w], err = server.Dial(srv.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer writerConns[w].Close()
	}
	srv.EnableCoherence(server.CoherenceOptions{})
	dial := func() (*server.Client, *OM, error) {
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		om, err := New(Options{Server: c, Schema: b.schema})
		if err != nil {
			c.Close()
			return nil, nil, err
		}
		return c, om, nil
	}

	// transfer moves d from one account to another in one 2PL transaction
	// on a bare client: the server's locks cover every read (an object
	// manager would read from its cache, under no lock). With grow set each
	// leg also switches its record's type string between the short one and
	// 250 bytes: growing relocates a record whose page lacks the room.
	const builtField, typeField = 4, 1
	transfer := func(c *server.Client, from, to oid.OID, d int64, grow bool) error {
		if _, err := c.BeginTx(); err != nil {
			return err
		}
		err := func() error {
			for _, leg := range []struct {
				id oid.OID
				d  int64
			}{{from, -d}, {to, d}} {
				addr, err := c.Lookup(leg.id)
				if err != nil {
					return err
				}
				read, err := c.ReadPage(addr.Page)
				if err != nil {
					return err
				}
				img, _, err := page.SplitImage(read)
				if err != nil {
					return err
				}
				rec, err := page.ReadRecordInImage(img, int(addr.Slot))
				if err != nil {
					return err
				}
				obj, err := object.Decode(b.schema, leg.id, rec)
				if err != nil {
					return err
				}
				obj.SetInt(builtField, obj.Int(builtField)+leg.d)
				if typ := obj.Str(typeField); grow && len(typ) > 100 {
					obj.SetStr(typeField, "part-type")
				} else if grow {
					obj.SetStr(typeField, strings.Repeat("r", 250))
				}
				if rec, err = object.Encode(obj); err != nil {
					return err
				}
				if _, err := c.UpdateObject(leg.id, rec); err != nil {
					return err
				}
			}
			return c.CommitTx()
		}()
		if err != nil {
			if aerr := c.AbortTx(); aerr != nil {
				return aerr
			}
			if strings.Contains(err.Error(), server.ErrLockTimeout.Error()) {
				return nil // the two writers deadlocked; the next transfer is another try
			}
		}
		return err
	}

	// snapshot reads every account under one snapshot and returns the
	// read-LSN and what it read.
	snapshot := func(c *server.Client, om *OM) (uint64, []int64, error) {
		_, readLSN, err := c.BeginSnapshotTx()
		if err != nil {
			return 0, nil, err
		}
		om.SetReadEpoch(readLSN)
		om.BeginApplication(appSpec(swizzle.EDS))
		vals := make([]int64, len(accounts))
		for i, id := range accounts {
			v := om.NewVar("a", b.part)
			if err := om.Load(v, id); err != nil {
				return 0, nil, err
			}
			if vals[i], err = om.ReadInt(v, "built"); err != nil {
				return 0, nil, err
			}
		}
		if err := om.Commit(); err != nil {
			return 0, nil, err
		}
		return readLSN, vals, c.CommitTx()
	}

	var (
		mu   sync.Mutex
		seen = map[uint64][]int64{}
	)
	check := func(who string, readLSN uint64, vals []int64) {
		var got int64
		for _, v := range vals {
			got += v
		}
		if got != sum {
			t.Errorf("%s at read-LSN %d: the accounts sum to %d, want %d: %v", who, readLSN, got, sum, vals)
		}
		mu.Lock()
		defer mu.Unlock()
		if first, ok := seen[readLSN]; !ok {
			seen[readLSN] = vals
		} else if !slices.Equal(first, vals) {
			t.Errorf("%s at read-LSN %d reads %v, another snapshot there read %v", who, readLSN, vals, first)
		}
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			c := writerConns[w]
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < transfers; i++ {
				from, to := rng.Intn(len(accounts)), rng.Intn(len(accounts)-1)
				if to >= from {
					to++
				}
				if err := transfer(c, accounts[from], accounts[to], 1+rng.Int63n(9), rng.Intn(3) == 0); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	reader := func(who string, fresh bool) {
		defer readers.Done()
		var c *server.Client
		var om *OM
		defer func() {
			if c != nil {
				c.Close()
			}
		}()
		for last := false; !last; {
			select {
			case <-done:
				last = true // one more snapshot, of the final state
			default:
			}
			if c == nil {
				var err error
				if c, om, err = dial(); err != nil {
					t.Error(err)
					return
				}
			}
			readLSN, vals, err := snapshot(c, om)
			if err != nil {
				t.Errorf("%s: %v", who, err)
				return
			}
			check(who, readLSN, vals)
			if fresh {
				c.Close()
				c = nil
			}
		}
		if c != nil {
			if err := om.Verify(); err != nil {
				t.Errorf("%s: OM.Verify: %v", who, err)
			}
		}
	}
	readers.Add(3)
	go reader("caching reader 1", false)
	go reader("caching reader 2", false)
	go reader("fresh reader", true)
	writers.Wait()
	close(done)
	readers.Wait()
	moved := 0
	for i, id := range accounts {
		if addr, _ := b.srv.Manager().Lookup(id); addr.Page != before[i].Page {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no part relocated")
	}
}

// TestSnapshotRelocationTargetWithheld: a reader begins a snapshot, and a
// writer then grows x past its page, so that x relocates to the segment's
// fill page — where y, which the reader may see, already lives. The reader
// faults y first: its Lookup answer may bring that page. Then it reads x.
// The page's live directory names x at its new slot, so had it come with
// the page, x would resolve from it to a record written after the read
// point. The snapshot read withholds it instead (snapshot_dir_withheld), and
// x comes from its page at the read point. Once with the writer's
// transaction in flight, once after it committed.
func TestSnapshotRelocationTargetWithheld(t *testing.T) {
	for _, committed := range []bool{false, true} {
		name := map[bool]string{false: "in_flight", true: "committed"}[committed]
		t.Run(name, func(t *testing.T) { snapshotRelocationTarget(t, committed) })
	}
}

func snapshotRelocationTarget(t *testing.T, committed bool) {
	b := buildBase(t, 80)
	mgr := b.srv.Manager()
	y := allocPart(t, b)
	x := b.parts[0]
	xAddr, _ := mgr.Lookup(x)
	yAddr, _ := mgr.Lookup(y)
	grown := growBeyond(t, b, x, xAddr.Page, yAddr.Page)

	srv, reader, writer := txBase(t, b)
	srvReg := metrics.New()
	srv.SetMetrics(srvReg)
	om, err := New(Options{Server: reader, Schema: b.schema})
	if err != nil {
		t.Fatal(err)
	}
	_, readLSN, err := reader.BeginSnapshotTx()
	if err != nil {
		t.Fatal(err)
	}
	om.SetReadEpoch(readLSN)

	if _, err := writer.BeginTx(); err != nil {
		t.Fatal(err)
	}
	if moved, err := writer.UpdateObject(x, grown); err != nil {
		t.Fatal(err)
	} else if moved.Page != yAddr.Page {
		t.Fatalf("setup: x moved to %v, not to y's page %v", moved, yAddr.Page)
	}
	if committed {
		if err := writer.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}

	om.BeginApplication(appSpec(swizzle.EDS))
	readBuilt := func(id oid.OID) int64 {
		t.Helper()
		v := om.NewVar("p", b.part)
		if err := om.Load(v, id); err != nil {
			t.Fatal(err)
		}
		built, err := om.ReadInt(v, "built")
		if err != nil {
			t.Fatal(err)
		}
		return built
	}
	if got := readBuilt(y); got != 1993 {
		t.Fatalf("y reads built = %d, want 1993", got)
	}
	if got := readBuilt(x); got != 1993 {
		t.Errorf("x reads built = %d, its value at the read point is 1993", got)
	}
	mustVerify(t, om)
	if got := srvReg.Count(metrics.CtrSnapshotDirWithheld); got == 0 {
		t.Error("snapshot_dir_withheld stayed 0")
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := reader.CommitTx(); err != nil {
		t.Fatal(err)
	}
	if !committed {
		if err := writer.CommitTx(); err != nil {
			t.Fatal(err)
		}
	}

	// With no snapshot left that reads before the relocation, nothing is
	// withheld any more, and a new snapshot reads x as it is now.
	withheld := srvReg.Count(metrics.CtrSnapshotDirWithheld)
	if _, readLSN, err = reader.BeginSnapshotTx(); err != nil {
		t.Fatal(err)
	}
	om.SetReadEpoch(readLSN)
	om.BeginApplication(appSpec(swizzle.EDS))
	if got := readBuilt(x); got != 2024 {
		t.Errorf("a snapshot begun after the commit reads built = %d, want 2024", got)
	}
	mustVerify(t, om)
	if got := srvReg.Count(metrics.CtrSnapshotDirWithheld); got != withheld {
		t.Errorf("snapshot_dir_withheld moved from %d to %d with nothing versioned", withheld, got)
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := reader.CommitTx(); err != nil {
		t.Fatal(err)
	}
}

// allocPart stores one more part, built 1993, on its segment's fill page.
func allocPart(t *testing.T, b *testBase) oid.OID {
	t.Helper()
	p := object.New(b.part, oid.Nil)
	p.SetInt(b.part.FieldIndex("built"), 1993)
	rec, err := object.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := b.srv.Manager().Allocate(0, rec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// growBeyond returns x's record with built 2024 and its type string grown
// past the room left on x's page, yet within the room left on target.
func growBeyond(t *testing.T, b *testBase, x oid.OID, from, target page.PageID) []byte {
	t.Helper()
	mgr := b.srv.Manager()
	free := func(pid page.PageID) int {
		img, err := mgr.Disk().ReadPage(pid)
		if err != nil {
			t.Fatal(err)
		}
		p, err := page.FromImage(img)
		if err != nil {
			t.Fatal(err)
		}
		return p.FreeSpace()
	}
	rec, _, err := mgr.Read(x)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := object.Decode(b.schema, x, rec)
	if err != nil {
		t.Fatal(err)
	}
	growth := free(from) + 16
	if from == target || len(rec)+growth > free(target) {
		t.Fatalf("setup: x's page %v has %d bytes free, the target %v has %d; x's record is %d bytes",
			from, free(from), target, free(target), len(rec))
	}
	typ := obj.Type.FieldIndex("type")
	obj.SetStr(typ, obj.Str(typ)+strings.Repeat("+", growth))
	obj.SetInt(obj.Type.FieldIndex("built"), 2024)
	grown, err := object.Encode(obj)
	if err != nil {
		t.Fatal(err)
	}
	return grown
}
