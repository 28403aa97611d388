// Wall-clock benchmarks: the testing.B counterparts of the experiment
// harness (internal/bench regenerates the paper's tables and figures in
// calibrated simulated time; these measure the same code paths on real
// hardware). One benchmark per paper table/figure, plus the ablations
// called out in DESIGN.md.
package gom_test

import (
	"fmt"
	"sync"
	"testing"

	"gom/internal/core"
	"gom/internal/oo1"
	"gom/internal/swizzle"
)

var (
	benchDBOnce sync.Once
	benchDB     *oo1.DB
	benchDBErr  error
)

// db returns a shared 2,000-part OO1 base (generation is expensive; the
// benchmarks treat it as read-mostly and balanced updates restore state).
func db(b *testing.B) *oo1.DB {
	benchDBOnce.Do(func() {
		cfg := oo1.DefaultConfig()
		cfg.NumParts = 2000
		benchDB, benchDBErr = oo1.Generate(cfg)
	})
	if benchDBErr != nil {
		b.Fatal(benchDBErr)
	}
	return benchDB
}

func client(b *testing.B, st swizzle.Strategy, opt core.Options) *oo1.Client {
	c, err := oo1.NewClient(db(b), opt, 7)
	if err != nil {
		b.Fatal(err)
	}
	c.Begin(swizzle.NewSpec(st.String(), st))
	return c
}

func eachStrategy(b *testing.B, fn func(b *testing.B, st swizzle.Strategy)) {
	for _, st := range []swizzle.Strategy{
		swizzle.NOS, swizzle.LIS, swizzle.EIS, swizzle.LDS, swizzle.EDS,
	} {
		b.Run(st.String(), func(b *testing.B) { fn(b, st) })
	}
}

// BenchmarkTable5Lookup measures steady-state int-field lookups through a
// resident reference under every strategy (Table 5). Under EDS the first
// read snowballs the whole 2,000-part base in, before the timer starts.
func BenchmarkTable5Lookup(b *testing.B) {
	eachStrategy(b, func(b *testing.B, st swizzle.Strategy) {
		c := client(b, st, core.Options{})
		v := c.OM.NewVar("p", c.DB.Part)
		if err := c.OM.Load(v, c.DB.Parts[0]); err != nil {
			b.Fatal(err)
		}
		if _, err := c.OM.ReadInt(v, "x"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.OM.ReadInt(v, "x"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable6SwizzleUnswizzle measures a swizzle+unswizzle round trip
// (Table 6): load a reference into a variable (swizzling it), then
// displace the target (unswizzling it).
func BenchmarkTable6SwizzleUnswizzle(b *testing.B) {
	for _, st := range []swizzle.Strategy{swizzle.LDS, swizzle.LIS} {
		b.Run(st.String(), func(b *testing.B) {
			c := client(b, st, core.Options{})
			v := c.OM.NewVar("p", c.DB.Part)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := c.DB.Parts[i%len(c.DB.Parts)]
				if err := c.OM.Load(v, id); err != nil {
					b.Fatal(err)
				}
				if err := c.OM.Deref(v); err != nil {
					b.Fatal(err)
				}
				if err := c.OM.DisplaceObject(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11Update measures int-field updates (Fig. 11b).
func BenchmarkFig11Update(b *testing.B) {
	eachStrategy(b, func(b *testing.B, st swizzle.Strategy) {
		if st == swizzle.EDS {
			b.Skip("EDS snowballs the whole base")
		}
		c := client(b, st, core.Options{})
		v := c.OM.NewVar("p", c.DB.Part)
		if err := c.OM.Load(v, c.DB.Parts[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.OM.WriteInt(v, "x", int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable8Translate measures copying a reference between variables
// of different layouts (Table 8 translations).
func BenchmarkTable8Translate(b *testing.B) {
	c, err := oo1.NewClient(db(b), core.Options{}, 7)
	if err != nil {
		b.Fatal(err)
	}
	c.Begin(swizzle.NewSpec("mix", swizzle.NOS).
		WithVar("direct", swizzle.LDS).WithVar("indirect", swizzle.LIS).WithVar("nos", swizzle.NOS))
	direct := c.OM.NewVar("direct", c.DB.Part)
	indirect := c.OM.NewVar("indirect", c.DB.Part)
	nos := c.OM.NewVar("nos", c.DB.Part)
	if err := c.OM.Load(direct, c.DB.Parts[0]); err != nil {
		b.Fatal(err)
	}
	pairs := []struct {
		name     string
		dst, src *core.Var
	}{
		{"direct-to-indirect", indirect, direct},
		{"indirect-to-nos", nos, indirect},
		{"nos-to-direct", direct, nos},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.OM.Assign(p.dst, p.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12Lookups measures the OO1 Lookup operation, hot.
func BenchmarkFig12Lookups(b *testing.B) {
	eachStrategy(b, func(b *testing.B, st swizzle.Strategy) {
		c := client(b, st, core.Options{PageBufferPages: 2000})
		if err := c.LookupN(2000); err != nil { // warm up / snowball
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Lookup(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig13Traversal measures hot Traversals of depth 4.
func BenchmarkFig13Traversal(b *testing.B) {
	eachStrategy(b, func(b *testing.B, st swizzle.Strategy) {
		if st == swizzle.EDS {
			b.Skip("EDS precluded at this buffer size (paper fn. 3)")
		}
		c := client(b, st, core.Options{})
		if _, err := c.Traversal(4); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Reseed(int64(i))
			if _, err := c.Traversal(4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig14TraversalWithLookups measures the Fig. 14 mix under the
// context-specific spec.
func BenchmarkFig14TraversalWithLookups(b *testing.B) {
	c, err := oo1.NewClient(db(b), core.Options{}, 7)
	if err != nil {
		b.Fatal(err)
	}
	c.Begin(swizzle.NewSpec("CTX", swizzle.NOS).
		WithContext("Connection", "to", swizzle.LDS).
		WithVar("troot", swizzle.LDS).WithVar("tpart", swizzle.LDS))
	if _, err := c.TraversalWithLookups(3, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reseed(int64(i))
		if _, err := c.TraversalWithLookups(3, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Reverse measures one Reverse Traversal level sweep.
func BenchmarkFig15Reverse(b *testing.B) {
	for _, st := range []swizzle.Strategy{swizzle.NOS, swizzle.LIS} {
		b.Run(st.String(), func(b *testing.B) {
			c := client(b, st, core.Options{})
			if _, err := c.ReverseTraversal(1, 6000); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reseed(int64(i))
				if _, err := c.ReverseTraversal(1, 6000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable9Update measures the OO1 Update operation, hot.
func BenchmarkTable9Update(b *testing.B) {
	eachStrategy(b, func(b *testing.B, st swizzle.Strategy) {
		if st == swizzle.EDS {
			b.Skip("EDS snowballs the whole base")
		}
		c := client(b, st, core.Options{})
		if err := c.UpdateOp(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.UpdateOp(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig16Mix measures the Updates+Lookups mix at 40 updates per
// 100 lookups.
func BenchmarkFig16Mix(b *testing.B) {
	for _, st := range []swizzle.Strategy{swizzle.NOS, swizzle.EIS} {
		b.Run(st.String(), func(b *testing.B) {
			c := client(b, st, core.Options{})
			if err := c.UpdateLookupMix(100, 40); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.UpdateLookupMix(100, 40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig18ObjectCache contrasts the copy architecture against the
// pure page buffer on a hot traversal (Fig. 18).
func BenchmarkFig18ObjectCache(b *testing.B) {
	for _, arch := range []string{"OC", "PB"} {
		b.Run(arch, func(b *testing.B) {
			opt := core.Options{PageBufferPages: 64}
			if arch == "OC" {
				opt = core.Options{PageBufferPages: 16, ObjectCache: true, ObjectCacheBytes: 2 << 20}
			}
			c, err := oo1.NewClient(db(b), opt, 7)
			if err != nil {
				b.Fatal(err)
			}
			c.Begin(swizzle.NewSpec("LIS", swizzle.LIS))
			if _, err := c.Traversal(4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reseed(7)
				if _, err := c.Traversal(4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiscoveryVsDereference compares the lazy swizzling
// trigger points (§3.2.1) on hot traversals.
func BenchmarkAblationDiscoveryVsDereference(b *testing.B) {
	for _, mode := range []string{"discovery", "dereference"} {
		b.Run(mode, func(b *testing.B) {
			opt := core.Options{LazyUponDereference: mode == "dereference"}
			c, err := oo1.NewClient(db(b), opt, 7)
			if err != nil {
				b.Fatal(err)
			}
			c.Begin(swizzle.NewSpec("LDS", swizzle.LDS))
			if _, err := c.Traversal(4); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Reseed(7)
				if _, err := c.Traversal(4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSnowball measures the cost of loading one part under
// unbounded vs type-bounded eager-direct swizzling.
func BenchmarkAblationSnowball(b *testing.B) {
	specs := map[string]*swizzle.Spec{
		"unbounded": swizzle.NewSpec("EDS", swizzle.EDS),
		"bounded":   swizzle.NewSpec("fig9", swizzle.EDS).WithType("Part", swizzle.EIS),
	}
	for name, spec := range specs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := oo1.NewClient(db(b), core.Options{PageBufferPages: 4000}, 7)
				if err != nil {
					b.Fatal(err)
				}
				c.Begin(spec)
				v := c.OM.NewVar("p", c.DB.Part)
				b.StartTimer()
				if err := c.OM.Load(v, c.DB.Parts[i%len(c.DB.Parts)]); err != nil {
					b.Fatal(err)
				}
				if err := c.OM.Deref(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRRLBlocks exercises RRL growth through fan-in churn.
func BenchmarkAblationRRLBlocks(b *testing.B) {
	c := client(b, swizzle.LDS, core.Options{})
	target := c.OM.NewVar("t", c.DB.Part)
	if err := c.OM.Load(target, c.DB.Parts[0]); err != nil {
		b.Fatal(err)
	}
	vars := make([]*core.Var, 32)
	for i := range vars {
		vars[i] = c.OM.NewVar(fmt.Sprintf("v%d", i), c.DB.Part)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vars[i%len(vars)]
		if err := c.OM.Assign(v, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDescriptorReclaim measures descriptor churn with and
// without reclamation.
func BenchmarkAblationDescriptorReclaim(b *testing.B) {
	for _, mode := range []string{"reclaim", "retain"} {
		b.Run(mode, func(b *testing.B) {
			opt := core.Options{RetainDescriptors: mode == "retain"}
			c, err := oo1.NewClient(db(b), opt, 7)
			if err != nil {
				b.Fatal(err)
			}
			c.Begin(swizzle.NewSpec("LIS", swizzle.LIS))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := c.OM.NewVar("churn", c.DB.Part)
				if err := c.OM.Load(v, c.DB.Parts[i%len(c.DB.Parts)]); err != nil {
					b.Fatal(err)
				}
				if _, err := c.OM.ReadInt(v, "x"); err != nil {
					b.Fatal(err)
				}
				c.OM.FreeVar(v)
			}
		})
	}
}
