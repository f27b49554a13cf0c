package localsearch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// swapStreamHash runs n chained proposals of mv from a fixed solution and
// stream and hashes every outcome: the ok flag, the changed indices and all
// of dst's position bits. Three proposals in four advance the chain; the
// fourth is proposed again from the same solution, as the best-neighbor
// drivers do.
func swapStreamHash(t *testing.T, in *wmn.Instance, mv DeltaMovement, n int) string {
	t.Helper()
	sol := randomSolution(in, 71)
	dst := wmn.NewSolution(in.NumRouters())
	r := rng.New(72)
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var buf []int
	for trial := 0; trial < n; trial++ {
		var ok bool
		buf, ok = mv.ProposeDelta(in, sol, dst, r, buf)
		if !ok {
			put(math.MaxUint64)
			continue
		}
		put(uint64(len(buf)))
		for _, i := range buf {
			put(uint64(i))
		}
		for _, p := range dst.Positions {
			put(math.Float64bits(p.X))
			put(math.Float64bits(p.Y))
		}
		if trial%4 != 3 {
			copy(sol.Positions, dst.Positions)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSwapProposalStreamGolden pins the swap movement's proposal stream
// byte for byte: any change to its random draws, its candidate cells or its
// router choice changes the hash. The hashes were recorded with the
// recount-and-sort implementation the tracked density grid replaced.
func TestSwapProposalStreamGolden(t *testing.T) {
	in := testInstance(t)
	for _, tc := range []struct {
		name string
		mv   *SwapMovement
		want string
	}{
		{"default", NewSwapMovement(), "0171193a3c16a8a7"},
		{"faithful", &SwapMovement{VirtualSlotProb: 0}, "86300b92c0cfddbf"},
		{"virtual", &SwapMovement{VirtualSlotProb: 1}, "7e6bd30e0bfac4cc"},
		{"tuned", &SwapMovement{CellW: 10, CellH: 20, TopK: 7, ClientWeight: 0.5, RouterWeight: 1, VirtualSlotProb: 0.3}, "97283f2626f4fe26"},
	} {
		if got := swapStreamHash(t, in, tc.mv, 2000); got != tc.want {
			t.Errorf("%s: stream hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSwapProposeDeltaAllocatesNothing pins the steady state of the swap
// hot path: once the grid and the candidate buffers exist, a chained
// proposal with a reused delta buffer allocates nothing.
func TestSwapProposeDeltaAllocatesNothing(t *testing.T) {
	in := testInstance(t)
	sol := randomSolution(in, 81)
	dst := wmn.NewSolution(in.NumRouters())
	mv := NewSwapMovement()
	r := rng.New(82)
	var buf []int
	step := func() {
		var ok bool
		buf, ok = mv.ProposeDelta(in, sol, dst, r, buf)
		if ok {
			copy(sol.Positions, dst.Positions)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("chained ProposeDelta allocates %.2f times per call, want 0", allocs)
	}
}

// TestSwapMovementFollowsCellSizeChange is the regression test for a grid
// cached across a cell-size change: after proposing at 16×16, setting
// CellW = 8 must give exactly the proposals of a fresh 8×16 movement.
func TestSwapMovementFollowsCellSizeChange(t *testing.T) {
	in := testInstance(t)
	changed := NewSwapMovement()
	changed.ProposeDelta(in, randomSolution(in, 91), wmn.NewSolution(in.NumRouters()), rng.New(92), nil)
	changed.CellW = 8
	fresh := NewSwapMovement()
	fresh.CellW = 8

	solA, solB := randomSolution(in, 93), randomSolution(in, 93)
	dstA, dstB := wmn.NewSolution(in.NumRouters()), wmn.NewSolution(in.NumRouters())
	rA, rB := rng.New(94), rng.New(94)
	var bufA, bufB []int
	for trial := 0; trial < 200; trial++ {
		var okA, okB bool
		bufA, okA = changed.ProposeDelta(in, solA, dstA, rA, bufA)
		bufB, okB = fresh.ProposeDelta(in, solB, dstB, rB, bufB)
		if okA != okB || fmt.Sprint(bufA) != fmt.Sprint(bufB) {
			t.Fatalf("trial %d: changed movement (%v, %v), fresh 8×16 movement (%v, %v)", trial, bufA, okA, bufB, okB)
		}
		if !okA {
			continue
		}
		for i := range dstA.Positions {
			if dstA.Positions[i] != dstB.Positions[i] {
				t.Fatalf("trial %d: router %d proposed at %v, fresh 8×16 movement %v", trial, i, dstA.Positions[i], dstB.Positions[i])
			}
		}
		copy(solA.Positions, dstA.Positions)
		copy(solB.Positions, dstB.Positions)
	}
}
