package meshplace

import (
	"runtime"

	"meshplace/internal/forkjoin"
	"meshplace/internal/ga"
	"meshplace/internal/localsearch"
	"meshplace/internal/rng"
)

// Neighborhood search types (§4 of the paper). See the localsearch
// documentation for the full semantics of each.
type (
	// Movement generates neighboring solutions; the neighborhood search,
	// hill climber, annealer and tabu search all consume Movements.
	Movement = localsearch.Movement
	// DeltaMovement is a Movement whose proposals also report which router
	// indices they changed, feeding the incremental evaluation hot path
	// directly. Movements that don't implement it still work: the drivers
	// recover the changed set with a positions diff.
	DeltaMovement = localsearch.DeltaMovement
	// SearchConfig drives NeighborhoodSearch (Algorithms 1 and 2).
	SearchConfig = localsearch.Config
	// SearchResult is the outcome of any of the search drivers.
	SearchResult = localsearch.Result
	// PhaseRecord is one point of a search trace.
	PhaseRecord = localsearch.PhaseRecord
	// SwapMovement is the paper's Algorithm 3 movement.
	SwapMovement = localsearch.SwapMovement
	// RandomMovement relocates one random router uniformly.
	RandomMovement = localsearch.RandomMovement
	// PerturbMovement nudges one router by Gaussian noise.
	PerturbMovement = localsearch.PerturbMovement
	// HillClimbConfig drives HillClimb (first-improvement).
	HillClimbConfig = localsearch.HillClimbConfig
	// AnnealConfig drives Anneal (simulated annealing).
	AnnealConfig = localsearch.AnnealConfig
	// TabuConfig drives Tabu (tabu search).
	TabuConfig = localsearch.TabuConfig
)

// NewSwapMovement returns the swap movement of Algorithm 3 with the
// defaults used by the Figure 4 experiment.
func NewSwapMovement() *SwapMovement { return localsearch.NewSwapMovement() }

// NewMixedMovement draws each proposal from one of several movements with
// the given weights.
func NewMixedMovement(movements []Movement, weights []float64) (Movement, error) {
	return localsearch.NewMixedMovement(movements, weights)
}

// NeighborhoodSearch runs the paper's neighborhood search (Algorithm 1)
// from the initial solution: per phase the best of a fixed number of
// generated neighbors replaces the current solution when it improves
// fitness.
func NeighborhoodSearch(eval *Evaluator, initial Solution, cfg SearchConfig, seed uint64) (SearchResult, error) {
	return localsearch.Search(eval, initial, cfg, rng.New(seed))
}

// HillClimb runs a first-improvement hill climber (paper future work).
func HillClimb(eval *Evaluator, initial Solution, cfg HillClimbConfig, seed uint64) (SearchResult, error) {
	return localsearch.HillClimb(eval, initial, cfg, rng.New(seed))
}

// Anneal runs simulated annealing (paper future work).
func Anneal(eval *Evaluator, initial Solution, cfg AnnealConfig, seed uint64) (SearchResult, error) {
	return localsearch.Anneal(eval, initial, cfg, rng.New(seed))
}

// Tabu runs a tabu search (paper future work).
func Tabu(eval *Evaluator, initial Solution, cfg TabuConfig, seed uint64) (SearchResult, error) {
	return localsearch.Tabu(eval, initial, cfg, rng.New(seed))
}

// Genetic algorithm types (§5 of the paper).
type (
	// GAConfig holds the GA parameters; the zero value selects the
	// experiment defaults (population 64, 800 generations).
	GAConfig = ga.Config
	// GAResult is the outcome of a GA run, including the per-generation
	// history the paper's figures plot.
	GAResult = ga.Result
	// GARecord is one point of the evolution history.
	GARecord = ga.GenRecord
	// GAInitializer produces initial populations.
	GAInitializer = ga.Initializer
)

// DefaultGAConfig returns the GA configuration used by the paper
// experiments.
func DefaultGAConfig() GAConfig { return ga.DefaultConfig() }

// NewPlacerInitializer seeds GA populations from an ad hoc method — the
// paper's §5 experiment setup.
func NewPlacerInitializer(m PlacementMethod, opts PlacementOptions) (GAInitializer, error) {
	return ga.NewPlacerInitializer(m, opts)
}

// RunGA executes the genetic algorithm on the evaluator's instance with a
// population produced by init.
func RunGA(eval *Evaluator, init GAInitializer, cfg GAConfig, seed uint64) (GAResult, error) {
	return ga.Run(eval, init, cfg, rng.New(seed))
}

// Island-model GA types (parallel populations with elite migration).
type (
	// IslandGAConfig parameterizes RunIslandGA: the per-island GAConfig
	// plus island count, migration interval/count and topology.
	IslandGAConfig = ga.IslandConfig
	// IslandGAResult is the outcome of an island-model run: the cross-
	// island best plus each island's own GAResult.
	IslandGAResult = ga.IslandResult
	// GATopology selects the migration graph between islands.
	GATopology = ga.Topology
	// GAFanOut fans island evolution across workers; build one with
	// IslandFanOut or leave nil for sequential evolution.
	GAFanOut = ga.FanOut
)

// Island migration topologies.
const (
	GARingTopology     = ga.RingTopology
	GACompleteTopology = ga.CompleteTopology
)

// DefaultIslandGAConfig returns the island-model defaults: four islands on
// a ring exchanging two elites every ten generations.
func DefaultIslandGAConfig() IslandGAConfig { return ga.DefaultIslandConfig() }

// ParseGATopology parses a migration-topology name ("ring", "complete").
func ParseGATopology(name string) (GATopology, error) { return ga.ParseTopology(name) }

// IslandFanOut returns a fan-out of at most the given number of workers
// (0 = one per CPU) — the forkjoin.ForEachIndexed fork-join every
// concurrent subsystem of the library shares. Island results are
// byte-identical at any worker count.
func IslandFanOut(workers int) GAFanOut {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return func(n int, fn func(i int) error) error {
		return forkjoin.ForEachIndexed(n, workers, fn)
	}
}

// RunIslandGA executes the island-model genetic algorithm: cfg.Islands
// populations seeded independently from init (per-island RNG streams
// derived from seed and the island index), evolving concurrently and
// exchanging elite individuals along cfg.Topology every cfg.MigrateEvery
// generations. A nil cfg.FanOut defaults to IslandFanOut(0); results do
// not depend on the worker count.
func RunIslandGA(eval *Evaluator, init GAInitializer, cfg IslandGAConfig, seed uint64) (IslandGAResult, error) {
	if cfg.FanOut == nil {
		cfg.FanOut = IslandFanOut(0)
	}
	return ga.RunIslands(eval, init, cfg, seed)
}
