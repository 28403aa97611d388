package oo1

import (
	"fmt"
	"math/rand"

	"gom/internal/core"
	"gom/internal/largeobj"
	"gom/internal/oid"
	"gom/internal/swizzle"
)

// Client runs OO1 operations against a database through one object
// manager. Creating the client does not start an application; callers
// drive Begin/Commit through the embedded OM to realize the cold/warm/hot
// protocols of §6.3.
type Client struct {
	DB  *DB
	OM  *core.OM
	rng *rand.Rand

	// Extent handles, (re)opened per application: selection of random
	// Parts/Connections goes through these persistent collections, so the
	// selection references are ordinary swizzlable references (they are
	// what amortizes swizzling across operations, §6.2).
	parts, conns *largeobj.List
}

// NewClient builds an object manager over the database with the given
// options and a deterministic operation stream. Options.Server, when
// set, overrides the database's in-process store — that is how a
// workload runs against the same base served over TCP (tracing and the
// client/server experiments dial a server.Client and pass it here).
func NewClient(db *DB, opt core.Options, seed int64) (*Client, error) {
	if opt.Server == nil {
		opt.Server = db.Srv
	}
	opt.Schema = db.Schema
	om, err := core.New(opt)
	if err != nil {
		return nil, err
	}
	return &Client{DB: db, OM: om, rng: rand.New(rand.NewSource(seed))}, nil
}

// Begin starts an application with the spec. Extent handles of the
// previous application are invalidated and reopened on first use.
func (c *Client) Begin(spec *swizzle.Spec) {
	c.OM.BeginApplication(spec)
	c.parts, c.conns = nil, nil
}

// extents opens the Part and Connection extent handles (Commit and
// BeginApplication invalidate the previous application's variables, so
// handles are reopened lazily).
func (c *Client) extents() error {
	if c.parts != nil && c.parts.Var().Valid() {
		return nil
	}
	pl, _ := largeobj.TypedNames("Part")
	cl, _ := largeobj.TypedNames("Connection")
	var err error
	c.parts, err = largeobj.OpenNamed(c.OM, SegExtents, "parts-extent", pl, c.DB.PartExtent)
	if err != nil {
		return err
	}
	c.conns, err = largeobj.OpenNamed(c.OM, SegExtents, "conns-extent", cl, c.DB.ConnExtent)
	return err
}

// selectPart positions dst on a uniformly random Part via the extent.
func (c *Client) selectPart(dst *core.Var) error {
	if err := c.extents(); err != nil {
		return err
	}
	return c.parts.Get(c.rng.Intn(len(c.DB.Parts)), dst)
}

// selectConn positions dst on a uniformly random Connection via the
// extent.
func (c *Client) selectConn(dst *core.Var) error {
	if err := c.extents(); err != nil {
		return err
	}
	n := len(c.DB.Conns) * c.DB.Cfg.ConnsPerPart
	return c.conns.Get(c.rng.Intn(n), dst)
}

// Reseed restarts the deterministic operation stream — hot/warm protocols
// re-run the identical operation sequence (§6.3: "the running time was
// measured to carry out the same Traversal again").
func (c *Client) Reseed(seed int64) { c.rng = rand.New(rand.NewSource(seed)) }

// nullProc is the benchmark's "call a null procedure".
//
//go:noinline
func nullProc(int64) {}

// RandomPart returns a uniformly random part OID.
func (c *Client) RandomPart() oid.OID {
	return c.DB.Parts[c.rng.Intn(len(c.DB.Parts))]
}

// RandomConn returns a uniformly random connection OID.
func (c *Client) RandomConn() oid.OID {
	i := c.rng.Intn(len(c.DB.Conns))
	return c.DB.Conns[i][c.rng.Intn(len(c.DB.Conns[i]))]
}

// readPartFields reads x, y and type of the part in v and calls the null
// procedure — the body of both Lookup and each Traversal visit.
func (c *Client) readPartFields(v *core.Var) error {
	x, err := c.OM.ReadInt(v, "x")
	if err != nil {
		return err
	}
	if _, err := c.OM.ReadInt(v, "y"); err != nil {
		return err
	}
	if _, err := c.OM.ReadStr(v, "type"); err != nil {
		return err
	}
	nullProc(x)
	return nil
}

// Lookup performs one OO1 Lookup: select a random Part (through the Part
// extent), read its x, y and type fields, call a null procedure (§6.1.2).
func (c *Client) Lookup() error {
	v := c.OM.NewVar("lookup", c.DB.Part)
	defer c.OM.FreeVar(v)
	if err := c.selectPart(v); err != nil {
		return err
	}
	return c.readPartFields(v)
}

// LookupN performs n Lookups.
func (c *Client) LookupN(n int) error {
	for i := 0; i < n; i++ {
		if err := c.Lookup(); err != nil {
			return err
		}
	}
	return nil
}

// Traversal performs one OO1 (forward) Traversal from a random part: a
// depth-first walk over connTo → to up to the given depth (default 7 in
// the paper), reading x, y and type of every part visited. Parts reached
// repeatedly are visited repeatedly (OO1 does not deduplicate). It
// returns the number of part visits: (3^(depth+1)−1)/2 for 3 connections
// per part.
func (c *Client) Traversal(depth int) (int, error) {
	return c.TraversalWithLookups(depth, 0)
}

// TraversalWithLookups is the Fig. 14 mix: a Traversal where, at every
// part visited, the x, y and type fields are read extraLookups additional
// times.
func (c *Client) TraversalWithLookups(depth, extraLookups int) (int, error) {
	root := c.OM.NewVar("troot", c.DB.Part)
	defer c.OM.FreeVar(root)
	if err := c.selectPart(root); err != nil {
		return 0, err
	}
	return c.traverse(root, depth, extraLookups)
}

// traverse recursively walks the parts graph. Like the original (§6.3),
// the depth-first recursion holds live local variables at every level —
// which is exactly what blew up LDS's RRLs in the paper.
func (c *Client) traverse(p *core.Var, depth, extraLookups int) (int, error) {
	if err := c.readPartFields(p); err != nil {
		return 0, err
	}
	for e := 0; e < extraLookups; e++ {
		if err := c.readPartFields(p); err != nil {
			return 0, err
		}
	}
	visits := 1
	if depth == 0 {
		return visits, nil
	}
	n, err := c.OM.Card(p, "connTo")
	if err != nil {
		return visits, err
	}
	for i := 0; i < n; i++ {
		cv := c.OM.NewVar("tconn", c.DB.Conn)
		pv := c.OM.NewVar("tpart", c.DB.Part)
		if err := c.OM.ReadElem(p, "connTo", i, cv); err != nil {
			return visits, err
		}
		if err := c.OM.ReadRef(cv, "to", pv); err != nil {
			return visits, err
		}
		sub, err := c.traverse(pv, depth-1, extraLookups)
		visits += sub
		c.OM.FreeVar(pv)
		c.OM.FreeVar(cv)
		if err != nil {
			return visits, err
		}
	}
	return visits, nil
}

// ReverseTraversal finds all parts connected TO a random part, and the
// parts connected to those, up to the given depth (§6.4). References in
// the reverse direction are not materialized, so each level selects the
// matching Connections from the set of all Connections. As in the paper,
// the join is partitioned: the Connections are processed in disjoint
// subsets sized to the buffer, each loaded once per level ("iteratively a
// subset was loaded and as much as possible of the Reverse Traversal was
// executed based on this subset"). It returns the number of part
// encounters, which matches a non-partitioned level-wise sweep.
func (c *Client) ReverseTraversal(depth, partitionConns int) (int, error) {
	if partitionConns <= 0 {
		partitionConns = 10000
	}
	if err := c.extents(); err != nil {
		return 0, err
	}
	start := c.DB.Parts[c.rng.Intn(len(c.DB.Parts))]
	frontier := map[oid.OID]bool{start: true}
	encounters := 1
	total := len(c.DB.Conns) * c.DB.Cfg.ConnsPerPart

	cv := c.OM.NewVar("rconn", c.DB.Conn)
	tv := c.OM.NewVar("rto", c.DB.Part)
	fv := c.OM.NewVar("rfrom", c.DB.Part)
	defer c.OM.FreeVar(cv)
	defer c.OM.FreeVar(tv)
	defer c.OM.FreeVar(fv)

	for level := 0; level < depth && len(frontier) > 0; level++ {
		next := map[oid.OID]bool{}
		for lo := 0; lo < total; lo += partitionConns {
			hi := lo + partitionConns
			if hi > total {
				hi = total
			}
			for i := lo; i < hi; i++ {
				if err := c.conns.Get(i, cv); err != nil {
					return encounters, err
				}
				if err := c.OM.ReadRef(cv, "to", tv); err != nil {
					return encounters, err
				}
				// Comparing the reference against the frontier requires
				// its unswizzled form (§3.4.2 / §4.2.3 translations).
				toID, err := c.OM.OID(tv)
				if err != nil {
					return encounters, err
				}
				if !frontier[toID] {
					continue
				}
				if err := c.OM.ReadRef(cv, "from", fv); err != nil {
					return encounters, err
				}
				if err := c.readPartFields(fv); err != nil {
					return encounters, err
				}
				fromID, err := c.OM.OID(fv)
				if err != nil {
					return encounters, err
				}
				encounters++
				next[fromID] = true
			}
		}
		frontier = next
	}
	return encounters, nil
}

// UpdateOp performs one OO1 Update: swap twice the values of the to
// fields of two randomly selected Connections — modifications happen, but
// the object base ends unchanged (§6.1.2).
func (c *Client) UpdateOp() error {
	c1 := c.OM.NewVar("u1", c.DB.Conn)
	c2 := c.OM.NewVar("u2", c.DB.Conn)
	t1 := c.OM.NewVar("ut1", c.DB.Part)
	t2 := c.OM.NewVar("ut2", c.DB.Part)
	defer c.OM.FreeVar(c1)
	defer c.OM.FreeVar(c2)
	defer c.OM.FreeVar(t1)
	defer c.OM.FreeVar(t2)
	if err := c.selectConn(c1); err != nil {
		return err
	}
	if err := c.selectConn(c2); err != nil {
		return err
	}
	for swap := 0; swap < 2; swap++ {
		if err := c.OM.ReadRef(c1, "to", t1); err != nil {
			return err
		}
		if err := c.OM.ReadRef(c2, "to", t2); err != nil {
			return err
		}
		if err := c.OM.WriteRef(c1, "to", t2); err != nil {
			return err
		}
		if err := c.OM.WriteRef(c2, "to", t1); err != nil {
			return err
		}
	}
	return nil
}

// UpdateLookupMix performs the Fig. 16 mix: per round of 100 Lookups,
// `updates` Update operations interleaved.
func (c *Client) UpdateLookupMix(lookups, updates int) error {
	for i := 0; i < lookups; i++ {
		if err := c.Lookup(); err != nil {
			return err
		}
		// Interleave updates evenly.
		if updates > 0 && lookups > 0 && (i*updates)/lookups != ((i+1)*updates)/lookups {
			if err := c.UpdateOp(); err != nil {
				return err
			}
		}
	}
	return nil
}

// LookupByID selects a part through the part-id B-tree index — the entry
// path a real OO1 implementation uses.
func (c *Client) LookupByID(partID int) error {
	ids := c.DB.PartIndex.Search(int64(partID))
	if len(ids) == 0 {
		return fmt.Errorf("oo1: no part with id %d", partID)
	}
	v := c.OM.NewVar("byid", c.DB.Part)
	defer c.OM.FreeVar(v)
	if err := c.OM.Load(v, ids[0]); err != nil {
		return err
	}
	return c.readPartFields(v)
}
