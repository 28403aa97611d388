package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gom/internal/buffer"
	"gom/internal/metrics"
	"gom/internal/objcache"
	"gom/internal/sim"
	"gom/internal/swizzle"
)

// hotWorkload runs a deterministic single-threaded mix of hot operations:
// load, dereference, int and string reads, int writes, cardinalities, set
// and ref reads, assigns, OID/Same translations, and a variable freed in
// the middle of its scope. It is used to prove that a Concurrent OM charges
// and counts exactly what a sequential OM does for the same calls.
func hotWorkload(t *testing.T, b *testBase, om *OM) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for i := range b.parts {
			p := om.NewVar("p", b.part)
			if err := om.Load(p, b.parts[i]); err != nil {
				t.Fatal(err)
			}
			if err := om.Deref(p); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadInt(p, "x"); err != nil {
				t.Fatal(err)
			}
			if err := om.WriteInt(p, "built", int64(2000+round)); err != nil {
				t.Fatal(err)
			}
			if _, err := om.ReadStr(p, "type"); err != nil {
				t.Fatal(err)
			}
			if _, err := om.TypeOf(p); err != nil {
				t.Fatal(err)
			}
			n, err := om.Card(p, "connTo")
			if err != nil {
				t.Fatal(err)
			}
			q := om.NewVar("q", b.part)
			if err := om.Assign(q, p); err != nil {
				t.Fatal(err)
			}
			if same, err := om.Same(p, q); err != nil || !same {
				t.Fatalf("Same = %v, %v", same, err)
			}
			if _, err := om.OID(q); err != nil {
				t.Fatal(err)
			}
			om.FreeVar(q) // mid-scope: the variables declared next outlive it
			c := om.NewVar("c", b.conn)
			to := om.NewVar("to", b.part)
			for j := 0; j < n; j++ {
				if err := om.ReadElem(p, "connTo", j, c); err != nil {
					t.Fatal(err)
				}
				if err := om.ReadRef(c, "to", to); err != nil {
					t.Fatal(err)
				}
				if _, err := om.ReadInt(to, "part-id"); err != nil {
					t.Fatal(err)
				}
			}
			om.FreeVar(to)
			om.FreeVar(c)
			om.FreeVar(p)
		}
	}
}

// TestConcurrentMatchesSequentialAccounting runs the same single-threaded
// workload on a sequential and a Concurrent object manager and requires
// identical simulated costs, meter counters, registry counters and
// scoreboards: the hit path must charge and count exactly what the
// structural path would, in both modes, including after a commit and after a
// switch of specification marks everything stale (first access takes the
// structural path, which must not find the hit path's attempt already
// counted).
func TestConcurrentMatchesSequentialAccounting(t *testing.T) {
	for i, strat := range swizzle.Strategies {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("%v/cache=%v", strat, cached)
			t.Run(name, func(t *testing.T) {
				var got [2]string
				for k, conc := range []bool{false, true} {
					b := buildBase(t, 24)
					om := b.om(t, Options{
						Concurrent:       conc,
						ObjectCache:      cached,
						ObjectCacheBytes: 1 << 20,
						Metrics:          metrics.New(),
					})
					om.BeginApplication(appSpec(strat))
					hotWorkload(t, b, om)
					if err := om.Commit(); err != nil {
						t.Fatal(err)
					}
					// Second application: objects are hot but freshly
					// invalid variables and (same-spec) non-stale objects.
					om.BeginApplication(appSpec(strat))
					hotWorkload(t, b, om)
					mustVerify(t, om)
					// Third: another strategy, so every cached object is stale.
					om.BeginApplication(appSpec(swizzle.Strategies[(i+2)%len(swizzle.Strategies)]))
					hotWorkload(t, b, om)
					mustVerify(t, om)
					got[k] = accounting(om)
				}
				if got[0] != got[1] {
					t.Errorf("sequential and concurrent accounting differ: %s", diffLines(got[0], got[1]))
				}
			})
		}
	}
}

// TestConcurrentHotTraversalStress hammers one Concurrent OM from many
// goroutines over a fully resident working set: every operation must take
// the fast path, nothing may fail, and the aggregate operation counts must
// equal the sum of the per-worker workloads.
func TestConcurrentHotTraversalStress(t *testing.T) {
	const nParts = 60
	const workers = 8
	const rounds = 30
	b := buildBase(t, nParts)
	om := b.om(t, Options{Concurrent: true, Metrics: metrics.New()})
	om.BeginApplication(appSpec(swizzle.EDS))

	// Warm the working set single-threaded so the stress phase is all hot.
	warm := om.NewVar("warm", b.part)
	for _, id := range b.parts {
		if err := om.Load(warm, id); err != nil {
			t.Fatal(err)
		}
		if err := om.Deref(warm); err != nil {
			t.Fatal(err)
		}
	}
	om.FreeVar(warm)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	derefsPerWorker := int64(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < nParts; i++ {
					pi := (w*7 + i) % nParts
					p := om.NewVar("p", b.part)
					if err := om.Load(p, b.parts[pi]); err != nil {
						errs <- err
						return
					}
					if err := om.Deref(p); err != nil {
						errs <- err
						return
					}
					if _, err := om.ReadInt(p, "x"); err != nil {
						errs <- err
						return
					}
					if err := om.WriteInt(p, "built", int64(w)); err != nil {
						errs <- err
						return
					}
					c := om.NewVar("c", b.conn)
					to := om.NewVar("to", b.part)
					for j := 0; j < 3; j++ {
						if err := om.ReadElem(p, "connTo", j, c); err != nil {
							errs <- err
							return
						}
						if err := om.ReadRef(c, "to", to); err != nil {
							errs <- err
							return
						}
						if _, err := om.ReadInt(to, "part-id"); err != nil {
							errs <- err
							return
						}
					}
					om.FreeVar(to)
					om.FreeVar(c)
					om.FreeVar(p)
				}
			}
		}(w)
	}
	derefsPerWorker = int64(rounds * nParts)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Warm loads: nParts Derefs; stress: workers × rounds × nParts.
	wantDerefs := int64(nParts) + int64(workers)*derefsPerWorker
	if got := om.Meter().Count(sim.CntDeref); got != wantDerefs {
		t.Errorf("CntDeref = %d, want %d", got, wantDerefs)
	}
	wantRefReads := int64(workers) * derefsPerWorker * 6 // 3×(ReadElem+ReadRef)
	if got := om.Meter().Count(sim.CntLookupRef); got != wantRefReads {
		t.Errorf("CntLookupRef = %d, want %d", got, wantRefReads)
	}
	if err := om.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := om.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEvictionStress runs many goroutines against a Concurrent OM
// whose page pool is far too small for the working set, so demand faults,
// evictions, and displacement storms run continuously under the writer lock
// while other workers race through fast paths. Capacity errors are
// tolerated; corruption and unexpected errors are not, and the structure
// must verify cleanly afterwards.
func TestConcurrentEvictionStress(t *testing.T) {
	for _, arch := range []string{"page", "copy"} {
		t.Run(arch, func(t *testing.T) {
			const workers = 10
			const rounds = 15
			b := buildBase(t, 40)
			opt := Options{
				Concurrent:      true,
				PageBufferPages: 3,
				Metrics:         metrics.New(),
			}
			if arch == "copy" {
				opt.PageBufferPages = 2
				opt.ObjectCache = true
				opt.ObjectCacheBytes = 2048
			}
			om := b.om(t, opt)
			om.BeginApplication(appSpec(swizzle.EDS))

			soft := func(err error) bool {
				return errors.Is(err, ErrNoCapacity) ||
					errors.Is(err, ErrNilRef) ||
					errors.Is(err, buffer.ErrNoFrames) ||
					errors.Is(err, objcache.ErrAllPinned)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers+1)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					p := om.NewVar("p", b.part)
					c := om.NewVar("c", b.conn)
					to := om.NewVar("to", b.part)
					defer func() {
						om.FreeVar(to)
						om.FreeVar(c)
						om.FreeVar(p)
					}()
					for r := 0; r < rounds; r++ {
						for i := range b.parts {
							pi := (w*11 + i) % len(b.parts)
							if err := om.Load(p, b.parts[pi]); err != nil {
								if soft(err) {
									continue
								}
								errs <- err
								return
							}
							if err := om.Deref(p); err != nil {
								if soft(err) {
									continue
								}
								errs <- err
								return
							}
							if _, err := om.ReadInt(p, "x"); err != nil && !soft(err) {
								errs <- err
								return
							}
							if err := om.WriteInt(p, "built", int64(r)); err != nil && !soft(err) {
								errs <- err
								return
							}
							if err := om.ReadElem(p, "connTo", i%3, c); err != nil {
								if soft(err) {
									continue
								}
								errs <- err
								return
							}
							if err := om.ReadRef(c, "to", to); err != nil && !soft(err) {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			// One goroutine displaces resident objects while the workers run,
			// exercising the writer path against the fast paths.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, id := range om.ResidentOIDs() {
						if err := om.DisplaceObject(id); err != nil && !soft(err) {
							// "not resident" races are expected; anything
							// else is not.
							if !errors.Is(err, ErrClosedVar) &&
								!isNotResident(err) {
								errs <- err
								return
							}
						}
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := om.Verify(); err != nil {
				t.Fatal(err)
			}
			if err := om.Commit(); err != nil && !soft(err) {
				t.Fatal(err)
			}
		})
	}
}

func isNotResident(err error) bool {
	return err != nil && strings.HasSuffix(err.Error(), "not resident")
}
