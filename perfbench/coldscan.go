package main

import (
	"context"
	"fmt"

	"khazana"
)

// cold-scan: 2 in-process nodes with 1024-page RAM tiers; a 4096-page
// region homed on node 1, stamped at setup. One op is one 16-page (64 KiB)
// batch read by node 2. Passes over the region alternate between
// read-lock scans and snapshot scans (one snapshot per batch).
const (
	csMemPages = 1024
	csPages    = 4096
	csBatch    = 16
	csBatches  = csPages / csBatch
	// csRound is one read-lock pass plus one snapshot pass.
	csRound = 2 * csBatches
)

func setupColdScan(ctx context.Context, e *env) (*instance, error) {
	c, err := khazana.NewCluster(2, khazana.WithStoreDir(e.dir), khazana.WithMemPages(csMemPages))
	if err != nil {
		return nil, err
	}
	inst := &instance{nodes: c.Nodes(), close: c.Close}
	inst.transport = func() (uint64, uint64) { return c.Network.Stats() }
	m := newModel(e.seed, 1)
	e.model = m
	home, reader := c.Node(1), c.Node(2)
	start, err := reserveAllocate(ctx, home, csPages*pageSize, khazana.Attrs{})
	if err != nil {
		c.Close()
		return nil, err
	}
	pageAddr := func(p int) khazana.Addr { return start.MustAdd(uint64(p * pageSize)) }

	// Stamp every page once from the home, one batch per lock.
	seq := m.issue(0)
	buf := make([]byte, pageSize)
	for b := 0; b < csBatches; b++ {
		lk, err := home.Lock(ctx, khazana.Range{Start: pageAddr(b * csBatch), Size: csBatch * pageSize}, khazana.LockWrite, principal)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("stamp batch %d: %w", b, err)
		}
		for p := b * csBatch; p < (b+1)*csBatch; p++ {
			m.stamp(buf, 0, p, seq)
			if err := lk.Write(pageAddr(p), buf); err != nil {
				_ = lk.Unlock(ctx)
				c.Close()
				return nil, fmt.Errorf("stamp page %d: %w", p, err)
			}
		}
		if err := lk.Unlock(ctx); err != nil {
			c.Close()
			return nil, fmt.Errorf("stamp batch %d: %w", b, err)
		}
	}
	m.commit(0, seq)

	scratch := make([]byte, pageSize)
	inst.op = func(ctx context.Context, _ int, i int, rec *recorder) error {
		b := i % csBatches
		rng := khazana.Range{Start: pageAddr(b * csBatch), Size: csBatch * pageSize}
		if (i/csBatches)%2 == 0 {
			return lockScan(ctx, reader, rng, b, m, scratch, rec)
		}
		return snapshotScan(ctx, reader, rng, b, m, scratch, rec)
	}
	inst.ping = inprocPinger(c)
	settle(c.Nodes())
	return inst, nil
}

// lockScan reads batch b under one read lock and checks every page.
func lockScan(ctx context.Context, n *khazana.Node, rng khazana.Range, b int, m *model, scratch []byte, rec *recorder) error {
	h := rec.begin("core", "Node.Lock(read)")
	lk, err := n.Lock(ctx, rng, khazana.LockRead, principal)
	rec.end(h)
	if err != nil {
		return err
	}
	var bad error
	for p := 0; p < csBatch && bad == nil; p++ {
		h = rec.begin("core", "Lock.ReadView")
		view, err := lk.ReadView(rng.Start.MustAdd(uint64(p*pageSize)), pageSize)
		rec.end(h)
		if err != nil {
			_ = lk.Unlock(ctx)
			return err
		}
		bad = checked(m.check(view, scratch, 0, b*csBatch+p))
	}
	h = rec.begin("core", "Lock.Unlock(read)")
	err = lk.Unlock(ctx)
	rec.end(h)
	if bad != nil {
		return bad
	}
	return err
}

// snapshotScan reads batch b through one snapshot and checks every page.
func snapshotScan(ctx context.Context, n *khazana.Node, rng khazana.Range, b int, m *model, scratch []byte, rec *recorder) error {
	snap := n.Snapshot(principal)
	var bad error
	for p := 0; p < csBatch && bad == nil; p++ {
		h := rec.begin("consistency", "Snapshot.View")
		view, err := snap.View(ctx, rng.Start.MustAdd(uint64(p*pageSize)), pageSize)
		rec.end(h)
		if err != nil {
			snap.Close()
			return err
		}
		bad = checked(m.check(view, scratch, 0, b*csBatch+p))
	}
	h := rec.begin("consistency", "Snapshot.Close")
	snap.Close()
	rec.end(h)
	return bad
}
