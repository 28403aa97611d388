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
// with the same read-LSN the same values.
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
	// manager would read from its cache, under no lock), and the record
	// keeps its size, so nothing relocates.
	const builtField = 4
	transfer := func(c *server.Client, from, to oid.OID, d int64) error {
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
				if err := transfer(c, accounts[from], accounts[to], 1+rng.Int63n(9)); err != nil {
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
}
