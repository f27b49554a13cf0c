package ga

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// This file implements the island model: N independently-seeded populations
// evolving the same instance concurrently, periodically exchanging elite
// individuals along a fixed migration topology. Migration is the
// population-diversity lever the GA literature singles out for router
// placement — islands explore different basins and the occasional elite
// immigrant pulls a stagnating population toward a better one without
// washing out its own genetic material.
//
// Determinism is part of the contract, not an accident: every island draws
// from its own RNG stream derived from (run seed, island index), islands
// only interact at generation barriers, and migration is applied in island
// index order from a pre-barrier snapshot. Results are therefore
// byte-identical at any worker count, the same invariance the scenario
// suite and portfolio fan-outs guarantee.

// Topology selects the migration graph between islands.
type Topology int

// Supported migration topologies.
const (
	// RingTopology sends emigrants from island i to island (i+1) mod N —
	// the classic unidirectional ring: slow diffusion, maximal diversity.
	RingTopology Topology = iota + 1
	// CompleteTopology sends emigrants from every island to every other —
	// fast diffusion, strongest selection pressure.
	CompleteTopology
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case RingTopology:
		return "ring"
	case CompleteTopology:
		return "complete"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// ParseTopology parses a topology name (case-insensitive).
func ParseTopology(name string) (Topology, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "ring":
		return RingTopology, nil
	case "complete":
		return CompleteTopology, nil
	default:
		return 0, fmt.Errorf("ga: unknown topology %q (want ring or complete)", name)
	}
}

// FanOut fans n indexed units of work across workers and returns the
// lowest-index error. Its signature matches forkjoin.ForEachIndexed
// bound to a worker count; callers inject that so island evolution rides
// the library's one bounded fork-join rather than ad hoc goroutines. A nil
// FanOut runs sequentially — by the fan-out invariance contract the
// results are byte-identical either way, only the wall clock differs.
type FanOut func(n int, fn func(i int) error) error

// sequentialFanOut is the nil-FanOut fallback.
func sequentialFanOut(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// IslandConfig parameterizes RunIslands: the per-island GA configuration
// plus the island count, migration topology and migration schedule. Zero
// fields take the defaults listed on each field.
type IslandConfig struct {
	// Config is the per-island GA configuration. Every island runs it
	// unchanged — PopSize is the size of each island's population, not the
	// total, and Generations counts per-island generations.
	Config
	// Islands is the number of concurrently evolving populations.
	// Default 4.
	Islands int
	// MigrateEvery is the number of generations between migration
	// barriers. Zero selects the default 10; to run fully isolated
	// islands (independent restarts), set it past Generations — no
	// barrier is ever reached.
	MigrateEvery int
	// Migrants is the number of elite emigrants sent along each topology
	// edge per migration. Zero selects the default 2 (as with every
	// config in this package, the zero value means "default", not
	// "none"); isolate islands via MigrateEvery instead.
	Migrants int
	// Topology is the migration graph. Unlike the other fields, the zero
	// value is NOT a default: an unset topology fails Validate rather than
	// silently picking one, because a config that migrates along a graph
	// the caller never chose misroutes migrants without any other symptom.
	// DefaultIslandConfig selects RingTopology explicitly.
	Topology Topology
	// FanOut carries island evolution across workers; nil evolves the
	// islands sequentially. Inject forkjoin.ForEachIndexed bound to a
	// worker count; the result is identical at any count.
	FanOut FanOut
	// OnBarrier, when non-nil, is called after every evolution chunk (each
	// migration barrier plus the final chunk) with the chunk's last
	// generation and the best metrics across all islands so far. Unlike
	// Config.OnGeneration — which fires concurrently from every island's
	// goroutine under FanOut — OnBarrier runs on the coordinating
	// goroutine between chunks, so progress observed through it is
	// monotonic in generation. It reads no RNG stream; wiring it never
	// perturbs results.
	OnBarrier func(gen int, best wmn.Metrics)
}

// DefaultIslandConfig returns the island-model defaults: four islands on a
// ring, two elite emigrants every ten generations, over DefaultConfig
// islands.
func DefaultIslandConfig() IslandConfig {
	return IslandConfig{Topology: RingTopology}.withDefaults()
}

func (c IslandConfig) withDefaults() IslandConfig {
	c.Config = c.Config.withDefaults()
	if c.Islands == 0 {
		c.Islands = 4
	}
	if c.MigrateEvery == 0 {
		c.MigrateEvery = 10
	}
	if c.Migrants == 0 {
		c.Migrants = 2
	}
	return c
}

// indegree returns the number of inbound migration edges per island.
func (c IslandConfig) indegree() int {
	if c.Islands <= 1 {
		return 0
	}
	if c.Topology == CompleteTopology {
		return c.Islands - 1
	}
	return 1
}

// Validate rejects unusable configurations.
func (c IslandConfig) Validate() error {
	c = c.withDefaults()
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Islands < 1 {
		return fmt.Errorf("ga: island count %d < 1", c.Islands)
	}
	if c.MigrateEvery < 1 {
		return fmt.Errorf("ga: migration interval %d < 1", c.MigrateEvery)
	}
	if c.Migrants < 0 {
		return fmt.Errorf("ga: migrant count %d < 0", c.Migrants)
	}
	switch c.Topology {
	case RingTopology, CompleteTopology:
	case 0:
		return errors.New("ga: island config has no topology (the zero value is invalid; set RingTopology or CompleteTopology, or start from DefaultIslandConfig)")
	default:
		return fmt.Errorf("ga: unknown topology %v", c.Topology)
	}
	if inbound := c.Migrants * c.indegree(); inbound >= c.PopSize {
		return fmt.Errorf("ga: %d inbound migrants per barrier would replace the whole %d-individual island (topology %v)",
			inbound, c.PopSize, c.Topology)
	}
	return nil
}

// IslandResult is the outcome of an island-model run.
type IslandResult struct {
	// Best is the best solution found by any island; ties break toward
	// the lowest island index so the result is deterministic.
	Best        wmn.Solution
	BestMetrics wmn.Metrics
	// BestIsland is the index of the island that found Best.
	BestIsland int
	// Islands holds each island's own Result (best, history,
	// evaluations) in island-index order.
	Islands []Result
	// Evaluations counts fitness evaluations summed over all islands.
	Evaluations int
	// Migrations counts immigrant placements summed over all barriers.
	Migrations int
}

// islandSeed labels island i's RNG stream. Each island descends from the
// run seed through its own label, so islands are decorrelated from each
// other and from every other stream derived from the same seed.
func islandSeed(seed uint64, i int) *rng.Rand {
	return rng.DeriveString(seed, "ga/island/"+strconv.Itoa(i))
}

// migrationSources returns the islands that send emigrants to dst, in
// island-index order.
func migrationSources(t Topology, islands, dst int) []int {
	if islands <= 1 {
		return nil
	}
	if t == CompleteTopology {
		src := make([]int, 0, islands-1)
		for s := 0; s < islands; s++ {
			if s != dst {
				src = append(src, s)
			}
		}
		return src
	}
	// Ring: i feeds (i+1) mod N, so dst hears (dst-1) mod N.
	return []int{(dst - 1 + islands) % islands}
}

// RunIslands executes the island-model GA on the instance behind eval:
// cfg.Islands populations drawn independently from init (each from its own
// RNG stream derived from seed and the island index), evolving
// concurrently via cfg.FanOut and exchanging cfg.Migrants elite
// individuals along cfg.Topology every cfg.MigrateEvery generations.
func RunIslands(eval *wmn.Evaluator, init Initializer, cfg IslandConfig, seed uint64) (IslandResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return IslandResult{}, err
	}
	if init == nil {
		return IslandResult{}, errors.New("ga: nil initializer")
	}
	fan := cfg.FanOut
	if fan == nil {
		fan = sequentialFanOut
	}
	// The Stop hook is a whole-run budget/cancellation gate: letting every
	// island consult it concurrently with island-local evaluation counts
	// would both race and misreport, so the coordinator takes it over and
	// consults it between chunks with evaluations summed across islands —
	// the same barrier OnBarrier reports at.
	stop := cfg.Config.Stop
	cfg.Config.Stop = nil

	// Draw and score every island's initial population; this is the first
	// concurrent phase, so it fans out too.
	runs := make([]*run, cfg.Islands)
	err := fan(cfg.Islands, func(i int) error {
		ru, err := newRun(eval, init, cfg.Config, islandSeed(seed, i))
		if err != nil {
			return fmt.Errorf("ga: island %d: %w", i, err)
		}
		runs[i] = ru
		return nil
	})
	if err != nil {
		return IslandResult{}, err
	}

	var res IslandResult
	// Evolve in MigrateEvery-generation chunks; every chunk boundary
	// before the final generation is a migration barrier.
	for start := 1; start <= cfg.Generations; start += cfg.MigrateEvery {
		end := start + cfg.MigrateEvery - 1
		if end > cfg.Generations {
			end = cfg.Generations
		}
		err := fan(cfg.Islands, func(i int) error {
			runs[i].evolve(start, end)
			return nil
		})
		if err != nil {
			return IslandResult{}, err
		}
		stopNow := false
		if stop != nil || cfg.OnBarrier != nil {
			evals := 0
			best := runs[0].res.BestMetrics
			for _, ru := range runs {
				evals += ru.res.Evaluations
				if ru.res.BestMetrics.Fitness > best.Fitness {
					best = ru.res.BestMetrics
				}
			}
			stopNow = stop != nil && stop(evals, best)
			if cfg.OnBarrier != nil {
				cfg.OnBarrier(end, best)
			}
		}
		if stopNow {
			break
		}
		if end < cfg.Generations {
			res.Migrations += migrate(runs, cfg)
		}
	}

	res.Islands = make([]Result, cfg.Islands)
	for i, ru := range runs {
		res.Islands[i] = ru.res
		res.Evaluations += ru.res.Evaluations
		better := ru.res.BestMetrics.Fitness > res.BestMetrics.Fitness ||
			(ru.res.BestMetrics.Fitness == res.BestMetrics.Fitness && i > 0 &&
				wmn.BetterLex(ru.res.BestMetrics, res.BestMetrics))
		if i == 0 || better {
			res.Best = ru.res.Best
			res.BestMetrics = ru.res.BestMetrics
			res.BestIsland = i
		}
	}
	return res, nil
}

// migrate applies one migration barrier: every island's elite emigrants
// (clones of its top cfg.Migrants individuals, populations are kept sorted)
// replace the worst individuals of each destination along the topology.
// Emigrants are snapshotted before any island is modified and destinations
// are processed in index order, so the outcome is independent of how the
// preceding chunk was scheduled. Immigrant metrics travel with them — both
// islands score against the same evaluator — so migration costs no
// evaluations. Returns the number of immigrant placements.
func migrate(runs []*run, cfg IslandConfig) int {
	if cfg.Migrants == 0 || len(runs) <= 1 {
		return 0
	}
	elites := make([][]individual, len(runs))
	for s, ru := range runs {
		top := make([]individual, cfg.Migrants)
		for k := range top {
			top[k] = individual{sol: ru.pop[k].sol.Clone(), metrics: ru.pop[k].metrics}
		}
		elites[s] = top
	}
	placed := 0
	for d, ru := range runs {
		k := 0
		for _, s := range migrationSources(cfg.Topology, len(runs), d) {
			for _, imm := range elites[s] {
				// Overwrite the current worst individuals in place; the
				// tail slots keep their position storage.
				slot := &ru.pop[len(ru.pop)-1-k]
				copy(slot.sol.Positions, imm.sol.Positions)
				slot.metrics = imm.metrics
				k++
				placed++
			}
		}
		if k > 0 {
			sortByFitness(ru.pop)
		}
	}
	return placed
}
