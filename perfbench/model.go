package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
)

// pageSize is the page size of every region the workloads create: the
// 4 KB default the paper's file system uses.
const pageSize = 4096

// model is the benchmark's own record of what the store must hold,
// computed apart from the program. Page bytes come from a seeded stamp
// generator keyed by (region, page, sequence); the model keeps the last
// committed sequence of each region, and for kfs-churn the live-file set.
//
// The two fault fields exist for the checker self-test: a model with a
// wrong byte or a skipped write must make the workloads report failed ops.
type model struct {
	seed uint64
	// issued and committed are indexed by region; concurrent load
	// goroutines touch disjoint regions.
	issued    []uint64
	committed []uint64
	live      map[string]bool

	// wrongByte, when set, flips one byte of the model's expectation for
	// one (region, page) pair.
	wrongByte *pageKey
	// skipCommit, when >= 0, is the index of the commit the model fails
	// to record (counting from 0 across all regions).
	skipCommit int64
	commits    atomic.Int64
}

// pageKey names one page of one workload region.
type pageKey struct{ region, page int }

func newModel(seed uint64, regions int) *model {
	return &model{
		seed:       seed,
		issued:     make([]uint64, regions),
		committed:  make([]uint64, regions),
		live:       make(map[string]bool),
		skipCommit: -1,
	}
}

// rng returns a generator of workload inputs for one stream; streams with
// different ids draw independent sequences from the same seed.
func (m *model) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(m.seed, stream, 0x5eed, 0))))
}

// issue hands out the next write sequence of a region.
func (m *model) issue(region int) uint64 {
	m.issued[region]++
	return m.issued[region]
}

// commit records that seq is now the region's committed contents.
func (m *model) commit(region int, seq uint64) {
	if m.commits.Add(1)-1 == m.skipCommit {
		return
	}
	m.committed[region] = seq
}

// stamp fills p with the bytes sequence seq writes at (region, page).
func (m *model) stamp(p []byte, region, page int, seq uint64) {
	x := mix(m.seed, uint64(region), uint64(page), seq)
	i := 0
	for ; i+8 <= len(p); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(p[i:], x)
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x))
		copy(p[i:], tail[:])
	}
}

// expect fills p with the bytes the model says (region, page) holds now.
func (m *model) expect(p []byte, region, page int) {
	m.stamp(p, region, page, m.committed[region])
	if k := m.wrongByte; k != nil && k.region == region && k.page == page {
		p[len(p)/2] ^= 0xff
	}
}

// check compares a page the program returned against the model, using
// scratch (at least len(got) bytes) for the expected contents.
func (m *model) check(got, scratch []byte, region, page int) error {
	want := scratch[:pageSize]
	m.expect(want, region, page)
	if len(got) != len(want) {
		return fmt.Errorf("region %d page %d: read %d bytes, want %d", region, page, len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("region %d page %d: contents differ from sequence %d (first difference at byte %d)",
			region, page, m.committed[region], firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// mix hashes four words into one generator state.
func mix(a, b, c, d uint64) uint64 {
	x := a
	for _, w := range [...]uint64{b, c, d} {
		x = splitmix(x ^ w)
	}
	return x
}

// splitmix is one step of the SplitMix64 generator.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
