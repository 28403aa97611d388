package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gom/internal/core"
	"gom/internal/server"
	"gom/internal/swizzle"
	"gom/internal/trace"
)

// opKind is one of the OO1 operations, each run as one transaction.
type opKind uint8

const (
	kindTraverse opKind = iota // depth-d forward traversal from one root
	kindLookup                 // ten part lookups
	kindUpdate                 // swap `to` of two connections, twice
	kindSnapRead               // ten depth-1 walks in a snapshot transaction
	numKinds
)

var (
	kindNames   = [numKinds]string{"traverse", "lookup", "update", "snapshot_read"}
	opSpanNames = [numKinds]string{"op.traverse", "op.lookup", "op.update", "op.snapshot_read"}
)

// lookupsPerOp is how many parts one lookup / snapshot-read transaction
// touches.
const lookupsPerOp = 10

// op is one generated input: the program sees nothing of the RNG that
// drew it.
type op struct {
	kind  opKind
	depth int
	// parts are part indices (part-id − 1): the traversal root, or the
	// lookupsPerOp parts a lookup / snapshot read starts from.
	parts [lookupsPerOp]int32
	// conns are the two connections an update swaps, as (part, k) pairs.
	conns [2][2]int32
	// postShift marks the first operations after a locality jump, which
	// shift_traverse reports on their own.
	postShift bool
}

// wantVisits is the number of part visits an operation must report:
// (3^(d+1)−1)/2 per traversal with three connections per part.
func (o *op) wantVisits() int {
	full := func(d int) int {
		n := 1
		for i := 0; i <= d; i++ {
			n *= 3
		}
		return (n - 1) / 2
	}
	switch o.kind {
	case kindTraverse:
		return full(o.depth)
	case kindLookup:
		return lookupsPerOp
	case kindSnapRead:
		return lookupsPerOp * full(1)
	}
	return 0
}

// Transaction phases, in order. Every operation passes through all five.
const (
	phTxBegin = iota
	phBeginApp
	phBody
	phOMCommit
	phTxCommit
	numPhases
)

var (
	phaseNames     = [numPhases]string{"tx_begin", "begin_app", "body", "om_commit", "tx_commit"}
	phaseSpanNames = [numPhases]string{"phase.tx_begin", "phase.begin_app", "phase.body", "phase.om_commit", "phase.tx_commit"}
)

// opResult is what the driver keeps per operation.
type opResult struct {
	kind      opKind
	at        time.Duration // start offset in the segment
	latency   time.Duration
	phase     [numPhases]time.Duration
	visits    int // part visits the body reported
	postShift bool
	failed    bool // aborted on lock timeout / transient error
	wrong     bool // output check failed
}

// retryable reports the two errors an operation may legitimately lose to:
// they are counted as failures, anything else stops the benchmark. A lock
// timeout crosses the wire as a plain message, hence the string match.
func retryable(err error) bool {
	return errors.Is(err, server.ErrLockTimeout) || errors.Is(err, server.ErrTransient) ||
		strings.Contains(err.Error(), "lock wait timeout")
}

// runOp executes one operation as one transaction through the public
// API: BeginTx → BeginApplication → body → OM.Commit → CommitTx.
func (c *client) runOp(o *op, spec *swizzle.Spec, at time.Duration) (opResult, error) {
	res := opResult{kind: o.kind, at: at, postShift: o.postShift}
	begin := time.Now()
	err := c.transact(o, spec, &res)
	res.latency = time.Since(begin)
	if err == nil {
		if o.kind == kindUpdate {
			c.ackedUpdates++
		}
		return res, nil
	}
	if !retryable(err) {
		return res, fmt.Errorf("%s: %w", kindNames[o.kind], err)
	}
	res.failed = true
	if aerr := c.rpc.AbortTx(); aerr != nil {
		return res, fmt.Errorf("%s: abort after %v: %w", kindNames[o.kind], err, aerr)
	}
	c.om.Discard()
	return res, nil
}

// transact runs the five phases, timing each with its own pair of clock
// readings so that the phases can be reconciled against the operation's
// latency instead of summing to it by construction.
func (c *client) transact(o *op, spec *swizzle.Spec, res *opResult) error {
	rec := c.rec
	begin := time.Now()
	var root uint64
	if rec.enabled {
		rec.op++
		root = rec.id()
		defer func() {
			rec.parent = 0
			rec.add(opSpanNames[o.kind], begin, time.Now(), root, 0)
		}()
	}
	phase := func(i int, fn func() error) error {
		t := time.Now()
		if !rec.enabled {
			err := fn()
			res.phase[i] = time.Since(t)
			return err
		}
		id := rec.id()
		rec.parent = id
		// A root span in the program's own ring, so the rpc:*, server:* and
		// commit:* spans of the driver's transaction-boundary calls have a
		// traced parent to nest under.
		sp := rec.tracer.Start(phaseSpanNames[i], trace.Context{})
		rec.ambient = sp.Context()
		err := fn()
		sp.Finish()
		rec.ambient = trace.Context{}
		e := time.Now()
		res.phase[i] = e.Sub(t)
		rec.add(phaseSpanNames[i], t, e, id, root)
		return err
	}

	err := phase(phTxBegin, func() error {
		if o.kind != kindSnapRead {
			return c.rpc.BeginTx()
		}
		readLSN, err := c.rpc.BeginSnapshotTx()
		if err == nil {
			c.om.SetReadEpoch(readLSN)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	_ = phase(phBeginApp, func() error { c.om.BeginApplication(spec); return nil })
	err = phase(phBody, func() (err error) { res.visits, err = c.body(o); return err })
	if err == nil {
		err = phase(phOMCommit, c.om.Commit)
	}
	if err == nil {
		err = phase(phTxCommit, c.rpc.CommitTx)
	}
	if err == nil {
		res.wrong = res.visits != o.wantVisits()
	}
	return err
}

// body dispatches the operation proper and returns its part visits.
func (c *client) body(o *op) (int, error) {
	switch o.kind {
	case kindTraverse:
		return c.traversal(int(o.parts[0]), o.depth)
	case kindLookup:
		for _, p := range o.parts {
			v := c.om.NewVar("lookup", c.db.Part)
			err := c.om.Load(v, c.db.Parts[p])
			if err == nil {
				err = c.readPartFields(v)
			}
			c.om.FreeVar(v)
			if err != nil {
				return 0, err
			}
		}
		return lookupsPerOp, nil
	case kindSnapRead:
		visits := 0
		for _, p := range o.parts {
			n, err := c.traversal(int(p), 1)
			visits += n
			if err != nil {
				return visits, err
			}
		}
		return visits, nil
	case kindUpdate:
		return 0, c.update(o.conns)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

//go:noinline
func nullProc(int64) {}

// readPartFields is the body of an OO1 lookup and of every traversal
// visit: read x, y and type, call a null procedure.
func (c *client) readPartFields(v *core.Var) error {
	x, err := c.om.ReadInt(v, "x")
	if err != nil {
		return err
	}
	if _, err := c.om.ReadInt(v, "y"); err != nil {
		return err
	}
	if _, err := c.om.ReadStr(v, "type"); err != nil {
		return err
	}
	nullProc(x)
	return nil
}

// traversal is the OO1 forward traversal from a given root: depth-first
// over connTo → to, visiting repeatedly reached parts repeatedly.
func (c *client) traversal(root, depth int) (int, error) {
	v := c.om.NewVar("troot", c.db.Part)
	defer c.om.FreeVar(v)
	if err := c.om.Load(v, c.db.Parts[root]); err != nil {
		return 0, err
	}
	return c.traverse(v, depth)
}

func (c *client) traverse(p *core.Var, depth int) (int, error) {
	if err := c.readPartFields(p); err != nil {
		return 0, err
	}
	visits := 1
	if depth == 0 {
		return visits, nil
	}
	n, err := c.om.Card(p, "connTo")
	if err != nil {
		return visits, err
	}
	for i := 0; i < n; i++ {
		cv := c.om.NewVar("tconn", c.db.Conn)
		pv := c.om.NewVar("tpart", c.db.Part)
		err := c.om.ReadElem(p, "connTo", i, cv)
		if err == nil {
			err = c.om.ReadRef(cv, "to", pv)
		}
		if err == nil {
			var sub int
			sub, err = c.traverse(pv, depth-1)
			visits += sub
		}
		c.om.FreeVar(pv)
		c.om.FreeVar(cv)
		if err != nil {
			return visits, err
		}
	}
	return visits, nil
}

// update is the OO1 update: swap the `to` fields of two connections,
// twice, so the base ends unchanged and any lost or half-applied
// transaction shows in the end-of-window comparison with db.ToParts.
func (c *client) update(conns [2][2]int32) error {
	om := c.om
	c1, c2 := om.NewVar("u1", c.db.Conn), om.NewVar("u2", c.db.Conn)
	t1, t2 := om.NewVar("ut1", c.db.Part), om.NewVar("ut2", c.db.Part)
	defer func() {
		for _, v := range []*core.Var{c1, c2, t1, t2} {
			om.FreeVar(v)
		}
	}()
	if err := om.Load(c1, c.db.Conns[conns[0][0]][conns[0][1]]); err != nil {
		return err
	}
	if err := om.Load(c2, c.db.Conns[conns[1][0]][conns[1][1]]); err != nil {
		return err
	}
	for swap := 0; swap < 2; swap++ {
		if err := om.ReadRef(c1, "to", t1); err != nil {
			return err
		}
		if err := om.ReadRef(c2, "to", t2); err != nil {
			return err
		}
		if err := om.WriteRef(c1, "to", t2); err != nil {
			return err
		}
		if err := om.WriteRef(c2, "to", t1); err != nil {
			return err
		}
	}
	return nil
}
