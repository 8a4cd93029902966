package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"khazana/internal/wire"
)

// grantBatchPages is the page count of the timed PageGrantBatch, the size
// of one replicated-pingpong lock.
const grantBatchPages = 16

// grantBatchRoundTrip times wire.Marshal + wire.Unmarshal of a seeded
// 16-page PageGrantBatch, checking the decoded pages against the model.
// It returns the median round trip in µs over blocks of calls and the
// bytes allocated per page.
func grantBatchRoundTrip(seed uint64) (us, allocBytesPerPage float64, err error) {
	m := newModel(seed, 1)
	batch := &wire.PageGrantBatch{Grants: make([]wire.PageGrantItem, grantBatchPages)}
	for p := range batch.Grants {
		data := make([]byte, pageSize)
		m.stamp(data, 0, p, 1)
		batch.Grants[p] = wire.PageGrantItem{OK: true, Data: data, Version: uint64(p + 1), Owner: 2}
	}
	const block = 100
	var perBlock []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < wireIters; i += block {
		t0 := time.Now()
		for j := 0; j < block; j++ {
			msg, uerr := wire.Unmarshal(wire.Marshal(batch))
			if uerr != nil {
				return 0, 0, fmt.Errorf("grant batch round trip: %w", uerr)
			}
			got, ok := msg.(*wire.PageGrantBatch)
			if !ok || len(got.Grants) != grantBatchPages {
				return 0, 0, fmt.Errorf("grant batch round trip: decoded %T", msg)
			}
			// Check one page per round trip, rotating, to keep the check
			// out of the way of the codec's own cost.
			p := (i + j) % grantBatchPages
			if !bytes.Equal(got.Grants[p].Data, batch.Grants[p].Data) || got.Grants[p].Version != uint64(p+1) {
				return 0, 0, checked(fmt.Errorf("grant batch round trip: page %d differs", p))
			}
			wire.Recycle(got)
		}
		perBlock = append(perBlock, float64(time.Since(t0))/1e3/block)
	}
	runtime.ReadMemStats(&m1)
	return median(perBlock), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(wireIters*grantBatchPages), nil
}
