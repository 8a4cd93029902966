package main

import (
	"context"
	"fmt"
	"math/rand"

	"khazana"
	"khazana/internal/telemetry"
)

// tcp-client: one daemon on a loopback TCP listener and one
// khazana.Client (its transport keeps 2 mux connections to the daemon)
// shared by 2 load goroutines over 128 one-page regions. Each goroutine
// owns half of the regions; its ops alternate a lock-write-unlock cycle
// and a lock-read-verify-unlock cycle on a seeded choice of region.
const (
	tcRegions    = 128
	tcGoroutines = 2
	tcPerG       = tcRegions / tcGoroutines
)

func setupTCPClient(ctx context.Context, e *env) (*instance, error) {
	daemon, err := khazana.StartNode(ctx, khazana.NodeConfig{
		ID:         1,
		ListenAddr: "127.0.0.1:0",
		StoreDir:   e.dir,
		Genesis:    true,
	})
	if err != nil {
		return nil, err
	}
	client, err := khazana.Dial(khazana.ClientID(1), 1, daemon.Addr(), principal)
	if err != nil {
		_ = daemon.Close()
		return nil, err
	}
	closeAll := func() {
		_ = client.Close()
		_ = daemon.Close()
	}
	// The daemon counts the bytes it moves; its RPCs are counted from its
	// handler spans, which traced ops ask for by carrying a span context.
	inst := &instance{nodes: []*khazana.Node{daemon}, close: closeAll, handlerRPCs: true}
	inst.transport = func() (uint64, uint64) {
		c := readCounters(inst.nodes)
		return 0, uint64(c[telemetry.MetricTransportBytesIn] + c[telemetry.MetricTransportBytesOut])
	}
	m := newModel(e.seed, tcRegions)
	e.model = m

	starts := make([]khazana.Addr, tcRegions)
	for r := range starts {
		start, err := client.Reserve(ctx, pageSize, khazana.Attrs{})
		if err == nil {
			err = client.Allocate(ctx, start)
		}
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("region %d: %w", r, err)
		}
		starts[r] = start
	}

	type loader struct {
		buf, scratch []byte
		order        *rand.Rand
	}
	loaders := make([]loader, tcGoroutines)
	for g := range loaders {
		loaders[g] = loader{make([]byte, pageSize), make([]byte, pageSize), m.rng(uint64(g + 1))}
	}
	cycle := func(ctx context.Context, l *loader, r int, write bool, rec *recorder) error {
		mode := khazana.LockRead
		if write {
			mode = khazana.LockWrite
		}
		ctx = rec.context(ctx)
		h := rec.begin("transport", "Client.Lock")
		lk, err := client.Lock(ctx, khazana.Range{Start: starts[r], Size: pageSize}, mode)
		rec.end(h)
		if err != nil {
			return err
		}
		var opErr error
		var seq uint64
		if write {
			seq = m.issue(r)
			m.stamp(l.buf, r, 0, seq)
			h = rec.begin("transport", "RemoteLock.Write")
			opErr = lk.Write(ctx, starts[r], l.buf)
			rec.end(h)
		} else {
			h = rec.begin("transport", "RemoteLock.Read")
			data, err := lk.Read(ctx, starts[r], pageSize)
			rec.end(h)
			if opErr = err; opErr == nil {
				opErr = checked(m.check(data, l.scratch, r, 0))
			}
		}
		h = rec.begin("transport", "RemoteLock.Unlock")
		err = lk.Unlock(ctx)
		rec.end(h)
		if opErr != nil {
			return opErr
		}
		if err == nil && write {
			m.commit(r, seq)
		}
		return err
	}
	// Warm-up: stamp every region once.
	for r := range starts {
		if err := cycle(ctx, &loaders[r/tcPerG], r, true, nil); err != nil {
			closeAll()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	inst.op = func(ctx context.Context, g, i int, rec *recorder) error {
		l := &loaders[g]
		r := g*tcPerG + l.order.Intn(tcPerG)
		return cycle(ctx, l, r, i%2 == 0, rec)
	}
	inst.ping = client.Ping
	settle(inst.nodes)
	return inst, nil
}
