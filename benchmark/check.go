package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gom/internal/metrics"
	"gom/internal/oid"
	"gom/internal/storage"
	"gom/internal/swizzle"
)

// checkOutputs verifies, after the last window and with the stack still
// up, that what the program did is right. Every violation is reported.
func checkOutputs(st *stack, windows ...*windowResult) error {
	var errs []error

	// Every operation reported the visit count its shape dictates.
	for _, w := range windows {
		if t := w.totals(); t.wrong > 0 {
			errs = append(errs, fmt.Errorf("%d operations reported a wrong visit count", t.wrong))
		}
	}

	// Object-manager invariants hold on every client.
	for _, c := range st.clients {
		if err := c.om.Verify(); err != nil {
			errs = append(errs, fmt.Errorf("client %d: OM.Verify: %w", c.id, err))
		}
	}

	// Every acknowledged update is a durable commit, and nothing else is.
	var acked int64
	for _, c := range st.clients {
		acked += c.ackedUpdates
	}
	if commits := st.reg.Snapshot().Count(metrics.CtrWALCommit); commits != acked {
		errs = append(errs, fmt.Errorf("%d updates acknowledged but %d WAL commits", acked, commits))
	}

	if err := checkTopology(st); err != nil {
		errs = append(errs, err)
	}
	if err := checkDurability(st); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// checkTopology re-reads every connection's `to` through a fresh, cold
// client and compares it with the generator's ground truth: updates swap
// twice, so the base must read exactly as generated.
func checkTopology(st *stack) error {
	c, err := st.dial(len(st.clients), st.db.NumPages())
	if err != nil {
		return err
	}
	defer c.conn.Close()
	if err := c.rpc.BeginTx(); err != nil {
		return err
	}
	c.om.BeginApplication(swizzle.NewSpec("check", swizzle.NOS))
	cv, pv := c.om.NewVar("conn", st.db.Conn), c.om.NewVar("to", st.db.Part)
	bad := 0
	for i, conns := range st.db.Conns {
		for k, id := range conns {
			if err := c.om.Load(cv, id); err != nil {
				return fmt.Errorf("topology check: %w", err)
			}
			if err := c.om.ReadRef(cv, "to", pv); err != nil {
				return fmt.Errorf("topology check: %w", err)
			}
			got, err := c.om.OID(pv)
			if err != nil {
				return fmt.Errorf("topology check: %w", err)
			}
			if got != st.db.Parts[st.db.ToParts[i][k]] {
				bad++
			}
		}
	}
	if err := c.om.Commit(); err != nil {
		return err
	}
	if err := c.rpc.CommitTx(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("topology check: %d connections do not point where they were generated to", bad)
	}
	return nil
}

// checkDurability is the crash test of the database-storage sheet: keep
// only the bytes that were flushed (copy the WAL directory, cut the log at
// the synced offset), recover a manager from them, and require every Part
// and Connection record to equal the live one.
func checkDurability(st *stack) error {
	dir, err := os.MkdirTemp(filepath.Dir(st.dir), "crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	synced := st.wal.SyncedOffset()
	for _, e := range entries {
		src := filepath.Join(st.dir, e.Name())
		limit := int64(-1)
		if src == st.wal.Path() {
			limit = synced
		}
		if err := copyFile(filepath.Join(dir, e.Name()), src, limit); err != nil {
			return fmt.Errorf("durability check: %w", err)
		}
	}
	mgr, wal, _, err := storage.RecoverManager(dir, 1)
	if err != nil {
		return fmt.Errorf("durability check: recover: %w", err)
	}
	defer wal.Close()

	bad := 0
	compare := func(id oid.OID) error {
		want, _, err := st.mgr.Read(id)
		if err != nil {
			return err
		}
		got, _, err := mgr.Read(id)
		if err != nil || !bytes.Equal(got, want) {
			bad++
		}
		return nil
	}
	for i, id := range st.db.Parts {
		if err := compare(id); err != nil {
			return err
		}
		for _, cid := range st.db.Conns[i] {
			if err := compare(cid); err != nil {
				return err
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("durability check: %d records differ after recovery from the flushed bytes", bad)
	}
	return nil
}

// copyFile copies src to dst, at most limit bytes when limit ≥ 0.
func copyFile(dst, src string, limit int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if limit >= 0 {
		r = io.LimitReader(in, limit)
	}
	if _, err := io.Copy(out, r); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
