package ga_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"meshplace/internal/ga"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// resultHasher feeds GA outcomes into one FNV-64a hash as fixed-width
// little-endian words, floats by their bits.
type resultHasher struct {
	h    hash.Hash64
	word [8]byte
}

func (rh *resultHasher) put(v uint64) {
	binary.LittleEndian.PutUint64(rh.word[:], v)
	rh.h.Write(rh.word[:])
}

func (rh *resultHasher) putFloat(f float64) { rh.put(math.Float64bits(f)) }

func (rh *resultHasher) putMetrics(m wmn.Metrics) {
	rh.put(uint64(m.GiantSize))
	rh.put(uint64(m.Covered))
	rh.put(uint64(m.Links))
	rh.put(uint64(m.Components))
	rh.putFloat(m.Fitness)
}

func (rh *resultHasher) putResult(res ga.Result) {
	for _, p := range res.Best.Positions {
		rh.putFloat(p.X)
		rh.putFloat(p.Y)
	}
	rh.putMetrics(res.BestMetrics)
	rh.put(uint64(res.Evaluations))
	rh.put(uint64(len(res.History)))
	for _, g := range res.History {
		rh.put(uint64(g.Generation))
		rh.putFloat(g.BestFitness)
		rh.put(uint64(g.BestGiant))
		rh.put(uint64(g.BestCovered))
		rh.putFloat(g.MeanFitness)
	}
}

func (rh *resultHasher) sum() string { return fmt.Sprintf("%016x", rh.h.Sum64()) }

// TestGAOutputGolden pins the GA's output bytes: best positions, best
// metrics, evaluation counts and histories of a default-operator Run and of
// a ring RunIslands, on two seeds. Any redrawn random stream — a reordered
// operator draw, a changed default — changes a hash. runs/xhafa09 pins the
// same streams at paper scale, but only through `make paper-check`.
func TestGAOutputGolden(t *testing.T) {
	eval := islandSetup(t)
	init := islandInit(t)
	for _, tc := range []struct {
		seed         uint64
		run, islands string
	}{
		{seed: 1, run: "aa93409338761d11", islands: "9fd405d52a5d7fe7"},
		{seed: 2, run: "0c41f209e284a041", islands: "bdce85afaf71900c"},
	} {
		res, err := ga.Run(eval, init, ga.Config{PopSize: 16, Generations: 30}, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		rh := &resultHasher{h: fnv.New64a()}
		rh.putResult(res)
		if got := rh.sum(); got != tc.run {
			t.Errorf("seed %d: Run hash %s, want %s", tc.seed, got, tc.run)
		}

		ir, err := ga.RunIslands(eval, init, ga.IslandConfig{
			Config:       ga.Config{PopSize: 16, Generations: 30},
			Islands:      4,
			MigrateEvery: 4,
			Topology:     ga.RingTopology,
		}, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		rh = &resultHasher{h: fnv.New64a()}
		rh.putResult(ga.Result{Best: ir.Best, BestMetrics: ir.BestMetrics, Evaluations: ir.Evaluations})
		rh.put(uint64(ir.BestIsland))
		rh.put(uint64(ir.Migrations))
		for _, isl := range ir.Islands {
			rh.putResult(isl)
		}
		if got := rh.sum(); got != tc.islands {
			t.Errorf("seed %d: RunIslands hash %s, want %s", tc.seed, got, tc.islands)
		}
	}
}
