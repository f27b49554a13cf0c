package ga_test

// External test package: the worker-invariance tests fan islands through
// forkjoin.ForEachIndexed from outside ga, the way every production caller
// injects its FanOut.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"meshplace/internal/forkjoin"
	"meshplace/internal/ga"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func islandSetup(t testing.TB) *wmn.Evaluator {
	t.Helper()
	cfg := wmn.DefaultGenConfig()
	cfg.NumRouters = 24
	cfg.NumClients = 60
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

func islandInit(t testing.TB) ga.Initializer {
	t.Helper()
	init, err := ga.NewPlacerInitializer(placement.HotSpot, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return init
}

func quickIslandCfg(fan ga.FanOut) ga.IslandConfig {
	return ga.IslandConfig{
		Config:       ga.Config{PopSize: 12, Generations: 24, RecordEvery: 4},
		Islands:      4,
		MigrateEvery: 6,
		Migrants:     2,
		Topology:     ga.RingTopology,
		FanOut:       fan,
	}
}

// poolFanOut binds the island fan-out to forkjoin.ForEachIndexed at the
// given worker count — the injection RunIslands expects in production.
func poolFanOut(workers int) ga.FanOut {
	return func(n int, fn func(i int) error) error {
		return forkjoin.ForEachIndexed(n, workers, fn)
	}
}

// TestIslandWorkerInvariance pins the determinism contract: the same
// (instance, config, seed) produces byte-identical results — cross-island
// best, per-island bests and full per-island histories — whether the
// islands evolve sequentially or on an 8-worker pool. Run under -race this
// also exercises the concurrent evolution path.
func TestIslandWorkerInvariance(t *testing.T) {
	eval := islandSetup(t)
	init := islandInit(t)
	const seed = 42

	sequential, err := ga.RunIslands(eval, init, quickIslandCfg(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ga.RunIslands(eval, init, quickIslandCfg(poolFanOut(8)), seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sequential, parallel) {
		t.Fatalf("8-worker result differs from sequential:\nseq: best island %d %v\npar: best island %d %v",
			sequential.BestIsland, sequential.BestMetrics, parallel.BestIsland, parallel.BestMetrics)
	}
	// Specifically: identical per-island histories, not just the winner.
	for i := range sequential.Islands {
		if !reflect.DeepEqual(sequential.Islands[i].History, parallel.Islands[i].History) {
			t.Errorf("island %d history diverged across worker counts", i)
		}
	}
	if err := sequential.Best.Validate(eval.Instance()); err != nil {
		t.Errorf("best solution invalid: %v", err)
	}
}

// TestIslandSingleIslandMatchesRun pins the chunked engine against the
// classic single-population path: one island evolved barrier-by-barrier
// must reproduce ga.Run on the island's derived stream draw for draw.
func TestIslandSingleIslandMatchesRun(t *testing.T) {
	eval := islandSetup(t)
	init := islandInit(t)
	const seed = 7

	cfg := quickIslandCfg(nil)
	cfg.Islands = 1
	islands, err := ga.RunIslands(eval, init, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Island 0's stream is derived from (seed, "ga/island/0") — the
	// label is part of the determinism contract.
	direct, err := ga.Run(eval, init, cfg.Config, rng.DeriveString(seed, "ga/island/0"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(islands.Islands[0], direct) {
		t.Error("single-island run diverged from ga.Run on the same stream")
	}
	if islands.Migrations != 0 {
		t.Errorf("single island recorded %d migrations", islands.Migrations)
	}
	if islands.Evaluations != direct.Evaluations {
		t.Errorf("evaluations %d != %d", islands.Evaluations, direct.Evaluations)
	}
}

// TestIslandMigrationArithmetic pins the barrier schedule: migrations
// happen after every MigrateEvery generations except the final one, and
// each barrier moves Migrants individuals per topology edge.
func TestIslandMigrationArithmetic(t *testing.T) {
	eval := islandSetup(t)
	init := islandInit(t)

	cfg := quickIslandCfg(nil)
	cfg.Islands = 3
	cfg.Generations = 10
	cfg.MigrateEvery = 4
	cfg.Migrants = 2
	// Chunks are generations 1–4, 5–8, 9–10: barriers after 4 and 8 only
	// (the run ends at 10, so no final barrier). Ring = one inbound edge
	// per island: 2 barriers × 3 edges × 2 migrants.
	res, err := ga.RunIslands(eval, init, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2; res.Migrations != want {
		t.Errorf("migrations = %d, want %d", res.Migrations, want)
	}

	complete := cfg
	complete.Topology = ga.CompleteTopology
	complete.Migrants = 1
	// Complete on 3 islands = 2 inbound edges per island: 2 barriers ×
	// 6 edges × 1 migrant.
	res, err = ga.RunIslands(eval, init, complete, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 6 * 1; res.Migrations != want {
		t.Errorf("complete-topology migrations = %d, want %d", res.Migrations, want)
	}

	// An interval beyond the horizon never migrates.
	never := cfg
	never.MigrateEvery = 100
	res, err = ga.RunIslands(eval, init, never, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 0 {
		t.Errorf("interval past the horizon migrated %d times", res.Migrations)
	}
}

func TestIslandRejectsNilInitializer(t *testing.T) {
	eval := islandSetup(t)
	if _, err := ga.RunIslands(eval, nil, quickIslandCfg(nil), 1); err == nil {
		t.Error("nil initializer accepted")
	}
}

func TestIslandBestIsBestOfIslands(t *testing.T) {
	eval := islandSetup(t)
	res, err := ga.RunIslands(eval, islandInit(t), quickIslandCfg(nil), 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, island := range res.Islands {
		if island.BestMetrics.Fitness > res.BestMetrics.Fitness {
			t.Errorf("island %d best %g beats the reported best %g",
				i, island.BestMetrics.Fitness, res.BestMetrics.Fitness)
		}
	}
	if got := res.Islands[res.BestIsland].BestMetrics; got != res.BestMetrics {
		t.Errorf("BestIsland %d metrics %v != reported best %v", res.BestIsland, got, res.BestMetrics)
	}
}

// BenchmarkIslandScaling measures island evolution across (islands ×
// workers): the same total population (64 individuals) either as one
// classic population or split across 4 islands, the islands evolving
// sequentially or on a pool. The acceptance bar is wall-clock speedup for
// 4 islands on multiple workers over the same 4 islands on one worker.
func BenchmarkIslandScaling(b *testing.B) {
	eval := islandSetup(b)
	init := islandInit(b)
	const generations = 30

	bench := func(islands, pop, workers int) func(*testing.B) {
		return func(b *testing.B) {
			cfg := ga.IslandConfig{
				Config:       ga.Config{PopSize: pop, Generations: generations},
				Islands:      islands,
				MigrateEvery: 10,
				Migrants:     2,
				Topology:     ga.RingTopology,
			}
			if workers > 1 {
				cfg.FanOut = poolFanOut(workers)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ga.RunIslands(eval, init, cfg, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	cpus := runtime.GOMAXPROCS(0)
	b.Run("islands=1/workers=1/pop=64", bench(1, 64, 1))
	b.Run("islands=4/workers=1/pop=16", bench(4, 16, 1))
	b.Run("islands=4/workers=4/pop=16", bench(4, 16, 4))
	b.Run(fmt.Sprintf("islands=8/workers=%d/pop=8", cpus), bench(8, 8, cpus))
}
