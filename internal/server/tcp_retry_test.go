package server

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gom/internal/faultpoint"
	"gom/internal/metrics"
	"gom/internal/oid"
)

func serveForRetry(t *testing.T) (*TCPServer, oid.OID) {
	t.Helper()
	srv, _, mgr := serveTx(t)
	t.Cleanup(func() { srv.Close() })
	id, _, err := mgr.Allocate(0, []byte("retry target"))
	if err != nil {
		t.Fatal(err)
	}
	return srv, id
}

// TestTCPRetryTransientServerFault: a server-side fault classified as
// transient travels the wire as the transient status, and a client that
// opted into retries recovers without surfacing the error.
func TestTCPRetryTransientServerFault(t *testing.T) {
	defer faultpoint.Reset()
	srv, id := serveForRetry(t)
	reg := metrics.New()
	c, err := DialWith(srv.Addr().String(), DialOptions{
		RetryAttempts: 3,
		RetryBackoff:  time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faultpoint.Arm(faultpoint.Fault{
		Site:  faultpoint.ServerLookup,
		Times: 1,
		Err:   fmt.Errorf("%w: injected blip", ErrTransient),
	})
	if _, err := c.Lookup(id); err != nil {
		t.Fatalf("Lookup with retries = %v, want success on the second attempt", err)
	}
	if got := reg.Count(metrics.CtrRPCRetry); got < 1 {
		t.Fatalf("CtrRPCRetry = %d, want ≥ 1", got)
	}
}

// TestTCPRetryDroppedRequest: an RPC dropped before it reaches the wire
// (the RPCSend fault site) is transient by construction and is retried.
func TestTCPRetryDroppedRequest(t *testing.T) {
	defer faultpoint.Reset()
	srv, id := serveForRetry(t)
	reg := metrics.New()
	c, err := DialWith(srv.Addr().String(), DialOptions{
		RetryAttempts: 3,
		RetryBackoff:  time.Millisecond,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.RPCSend, Times: 1})
	if _, err := c.Lookup(id); err != nil {
		t.Fatalf("Lookup after a dropped request = %v, want retried success", err)
	}
	if got := reg.Count(metrics.CtrRPCRetry); got < 1 {
		t.Fatalf("CtrRPCRetry = %d, want ≥ 1", got)
	}
}

// TestTCPTransientWithoutRetryOptIn: with retries disabled (the default),
// a transient failure surfaces to the caller — and is recognizable as
// ErrTransient so callers can build their own policy.
func TestTCPTransientWithoutRetryOptIn(t *testing.T) {
	defer faultpoint.Reset()
	srv, id := serveForRetry(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faultpoint.Arm(faultpoint.Fault{
		Site:  faultpoint.ServerLookup,
		Times: 1,
		Err:   fmt.Errorf("%w: injected blip", ErrTransient),
	})
	if _, err := c.Lookup(id); !errors.Is(err, ErrTransient) {
		t.Fatalf("Lookup without retries = %v, want ErrTransient", err)
	}
	// Permanent injected faults must NOT be retried even with retries on.
	faultpoint.Reset()
	faultpoint.Arm(faultpoint.Fault{Site: faultpoint.ServerLookup, Times: 1})
	c2, err := DialWith(srv.Addr().String(), DialOptions{RetryAttempts: 3, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Lookup(id); err == nil || errors.Is(err, ErrTransient) {
		t.Fatalf("Lookup with a permanent fault = %v, want a non-transient error", err)
	}
	// A transaction's session checks the same sites.
	addr, err := c.Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginTx(); err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(faultpoint.Fault{
		Site:  faultpoint.ServerReadPage,
		Times: 1,
		Err:   fmt.Errorf("%w: injected blip", ErrTransient),
	})
	if _, err := c.ReadPage(addr.Page); !errors.Is(err, ErrTransient) {
		t.Fatalf("ReadPage inside a transaction = %v, want ErrTransient", err)
	}
	if err := c.AbortTx(); err != nil {
		t.Fatal(err)
	}
}
