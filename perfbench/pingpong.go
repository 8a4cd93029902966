package main

import (
	"context"
	"fmt"

	"khazana"
)

// replicated-pingpong: 3 in-process nodes, 8 regions of 16 pages homed on
// node 1 with MinReplicas 3. One op write-locks one region on node 2 or 3
// (taking turns), writes all 16 pages, unlocks, then read-locks the same
// region on the other node and checks every page against the model.
const (
	ppRegions = 8
	ppPages   = 16
)

func setupPingpong(ctx context.Context, e *env) (*instance, error) {
	c, err := khazana.NewCluster(3, khazana.WithStoreDir(e.dir))
	if err != nil {
		return nil, err
	}
	inst := &instance{nodes: c.Nodes(), close: c.Close}
	inst.transport = func() (uint64, uint64) { return c.Network.Stats() }
	m := newModel(e.seed, ppRegions)
	e.model = m
	starts := make([]khazana.Addr, ppRegions)
	home := c.Node(1)
	for r := range starts {
		start, err := reserveAllocate(ctx, home, ppPages*pageSize, khazana.Attrs{MinReplicas: 3})
		if err != nil {
			c.Close()
			return nil, err
		}
		starts[r] = start
	}
	// The harness runs without background loops: refresh the home's
	// membership view, then grow every home list to MinReplicas.
	home.Core().SendHeartbeat()
	home.Core().MaintainReplicas()
	for r, start := range starts {
		d, err := home.GetAttr(ctx, start)
		if err != nil {
			c.Close()
			return nil, err
		}
		if len(d.Home) != 3 {
			c.Close()
			return nil, fmt.Errorf("region %d: home list %v, want 3 homes", r, d.Home)
		}
	}

	buf := make([]byte, pageSize)
	scratch := make([]byte, pageSize)
	pingpong := func(ctx context.Context, r, i int, rec *recorder) error {
		writer, reader := c.Node(2), c.Node(3)
		if i%2 == 1 {
			writer, reader = reader, writer
		}
		rng := khazana.Range{Start: starts[r], Size: ppPages * pageSize}

		h := rec.begin("core", "Node.Lock(write)")
		wl, err := writer.Lock(ctx, rng, khazana.LockWrite, principal)
		rec.end(h)
		if err != nil {
			return err
		}
		seq := m.issue(r)
		for p := 0; p < ppPages; p++ {
			m.stamp(buf, r, p, seq)
			h = rec.begin("core", "Lock.Write")
			err = wl.Write(starts[r].MustAdd(uint64(p*pageSize)), buf)
			rec.end(h)
			if err != nil {
				_ = wl.Unlock(ctx)
				return err
			}
		}
		h = rec.begin("core", "Lock.Unlock(write)")
		err = wl.Unlock(ctx)
		rec.end(h)
		if err != nil {
			return err
		}
		m.commit(r, seq)

		h = rec.begin("core", "Node.Lock(read)")
		rl, err := reader.Lock(ctx, rng, khazana.LockRead, principal)
		rec.end(h)
		if err != nil {
			return err
		}
		var bad error
		for p := 0; p < ppPages && bad == nil; p++ {
			h = rec.begin("core", "Lock.ReadView")
			view, err := rl.ReadView(starts[r].MustAdd(uint64(p*pageSize)), pageSize)
			rec.end(h)
			if err != nil {
				_ = rl.Unlock(ctx)
				return err
			}
			bad = checked(m.check(view, scratch, r, p))
		}
		h = rec.begin("core", "Lock.Unlock(read)")
		err = rl.Unlock(ctx)
		rec.end(h)
		if bad != nil {
			return bad
		}
		return err
	}
	// One warm-up op per region and direction, so ownership has moved off
	// the home and the replicas are in their steady state before timing.
	for i := 0; i < 2*ppRegions; i++ {
		if err := pingpong(ctx, i/2, i, nil); err != nil {
			c.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	order := m.rng(1)
	inst.op = func(ctx context.Context, _ int, i int, rec *recorder) error {
		return pingpong(ctx, order.Intn(ppRegions), i, rec)
	}
	inst.ping = inprocPinger(c)
	settle(c.Nodes())
	return inst, nil
}
