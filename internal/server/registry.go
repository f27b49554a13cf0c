package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"meshplace/internal/forkjoin"
	"meshplace/internal/ga"
	"meshplace/internal/localsearch"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Solver is the unified interface over every placement method of the
// library. Implementations are safe for concurrent use: all per-solve
// state is derived inside Solve from the evaluator and the seed, and
// identical (instance, spec, seed) triples yield identical solutions.
type Solver interface {
	// Spec returns the canonical spec the solver was built from.
	Spec() Spec
	// Solve places the evaluator's instance, deriving every random
	// stream from seed, and returns the best solution found with its
	// metrics. ctx bounds the run: when it is cancelled or its deadline
	// expires, the solver stops at its next phase boundary and returns
	// the incumbent best as a normal result, never an error (the full
	// report, including whether the run was truncated, is available
	// through TracedSolver.SolveTraced). Deadlines never perturb
	// determinism — they only decide which deterministic phase boundary
	// the run stops at.
	Solve(ctx context.Context, eval *wmn.Evaluator, seed uint64) (wmn.Solution, wmn.Metrics, error)
}

// AnytimePoint is one point of a solve's anytime curve: the best fitness
// known after the given number of fitness evaluations. Points land at
// solver phase boundaries whenever the best improved, plus the terminal
// boundary, so the curve is non-empty and ends at the returned metrics.
// Being keyed by evaluation counts rather than wall clock, the curve is
// identical for identical (instance, spec, seed) triples at any worker
// count.
type AnytimePoint struct {
	Evals       int     `json:"evals"`
	BestFitness float64 `json:"bestFitness"`
}

// SolveReport is the full outcome of one solve: the solution and metrics
// every solve yields, plus the anytime curve, the evaluation count, the
// portfolio race report (portfolio kind only) and the truncation flag.
type SolveReport struct {
	// Solution and Metrics are the best placement found and its evaluation.
	Solution wmn.Solution
	Metrics  wmn.Metrics
	// Evaluations counts fitness evaluations across the run.
	Evaluations int
	// Anytime is the run's improvement curve (see AnytimePoint).
	Anytime []AnytimePoint
	// Portfolio describes how a portfolio solve raced its members; nil for
	// every other kind.
	Portfolio *PortfolioReport
	// Truncated reports that ctx ended the run early: the result is the
	// incumbent at the phase boundary where cancellation was observed, not
	// the spec's full deterministic output, and must not be cached as it.
	Truncated bool
}

// TracedSolver is implemented by solvers that can report live progress.
// Every solver NewSolver returns implements it. The hook receives the
// method's own trace records as the search runs (phase for the
// neighborhood methods, generation/barrier for the GA, slice barrier for
// the portfolio; the ad hoc constructors have no phases and never call
// it); it draws from no random stream, so a traced solve returns results
// byte-identical to Solve with the same triple. onPhase may be nil. The
// hook is called from the solving goroutine: slow consumers must buffer,
// not block.
type TracedSolver interface {
	Solver
	SolveTraced(ctx context.Context, eval *wmn.Evaluator, seed uint64, onPhase func(localsearch.PhaseRecord)) (SolveReport, error)
}

// solver is the generic wrapper every registered backend is served
// through: it owns the anytime recorder and ctx-driven truncation, so
// backends only run their engine.
type solver struct {
	spec Spec
	run  BackendSolve
}

// Spec returns the canonical spec the solver was built from.
func (s solver) Spec() Spec { return s.spec }

// Solve runs the backend and returns the best placement found.
func (s solver) Solve(ctx context.Context, eval *wmn.Evaluator, seed uint64) (wmn.Solution, wmn.Metrics, error) {
	rep, err := s.SolveTraced(ctx, eval, seed, nil)
	return rep.Solution, rep.Metrics, err
}

// SolveTraced runs the backend with the anytime recorder wired into its
// stop hook and the caller's onPhase observer into its progress hook.
func (s solver) SolveTraced(ctx context.Context, eval *wmn.Evaluator, seed uint64, onPhase func(localsearch.PhaseRecord)) (SolveReport, error) {
	rec := anytimeRecorder{ctx: ctx}
	out, err := s.run(ctx, eval, seed, BackendHooks{OnPhase: onPhase, Stop: rec.hook})
	if err != nil {
		return SolveReport{}, err
	}
	anytime := out.Anytime
	if anytime == nil {
		anytime = rec.finish(out.Evaluations, out.Metrics)
	}
	return SolveReport{
		Solution:    out.Solution,
		Metrics:     out.Metrics,
		Evaluations: out.Evaluations,
		Anytime:     anytime,
		Portfolio:   out.Portfolio,
		Truncated:   rec.truncated || out.Truncated,
	}, nil
}

// anytimeRecorder is the generic wrapper's phase-boundary hook: it records
// the anytime curve (one point per improvement) and stops the engine when
// ctx is cancelled or past its deadline. Methods run on the solving
// goroutine only; the recorder draws from no random stream, so it never
// perturbs results.
type anytimeRecorder struct {
	ctx       context.Context
	curve     []AnytimePoint
	truncated bool
}

func (a *anytimeRecorder) hook(evals int, best wmn.Metrics) bool {
	if len(a.curve) == 0 || best.Fitness > a.curve[len(a.curve)-1].BestFitness {
		a.curve = append(a.curve, AnytimePoint{Evals: evals, BestFitness: best.Fitness})
	}
	if a.ctx != nil && a.ctx.Err() != nil {
		a.truncated = true
		return true
	}
	return false
}

// finish closes the curve at the run's terminal point. Engines without
// phase boundaries (the ad hoc constructors) never call hook; their curve
// is the single terminal point.
func (a *anytimeRecorder) finish(evals int, best wmn.Metrics) []AnytimePoint {
	if n := len(a.curve); n == 0 || a.curve[n-1].Evals != evals || a.curve[n-1].BestFitness != best.Fitness {
		a.curve = append(a.curve, AnytimePoint{Evals: evals, BestFitness: best.Fitness})
	}
	return a.curve
}

// methodParam accepts an ad hoc placement method name, canonicalized to
// the paper's capitalization.
func methodParam(raw string) (string, error) {
	m, err := placement.MethodFromName(raw)
	if err != nil {
		return "", err
	}
	return m.String(), nil
}

// topologyParam accepts an island migration topology name, canonicalized
// to lowercase.
func topologyParam(raw string) (string, error) {
	t, err := ga.ParseTopology(raw)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}

// movementParam accepts a neighborhood movement name, canonicalized to
// lowercase.
func movementParam(raw string) (string, error) {
	name := strings.ToLower(raw)
	switch name {
	case "swap", "random", "perturb":
		return name, nil
	default:
		return "", fmt.Errorf("unknown movement %q (want swap, random or perturb)", raw)
	}
}

// movementFor builds a fresh Movement for one solve; swap movements carry
// per-instance scratch state and must not be shared across runs.
func movementFor(name string) localsearch.Movement {
	switch name {
	case "swap":
		return localsearch.NewSwapMovement()
	case "random":
		return localsearch.RandomMovement{}
	case "perturb":
		return localsearch.PerturbMovement{}
	default:
		panic(fmt.Sprintf("server: movement %q escaped validation", name))
	}
}

// initialSolution places the spec's "init" method on the instance, seeding
// it from the solve seed's derived init stream.
func initialSolution(spec Spec, eval *wmn.Evaluator, seed uint64) (wmn.Solution, error) {
	m, err := placement.MethodFromName(spec.Param("init"))
	if err != nil {
		return wmn.Solution{}, err
	}
	p, err := placement.New(m, placement.Options{})
	if err != nil {
		return wmn.Solution{}, err
	}
	return p.Place(eval.Instance(), rng.DeriveString(seed, "solve/init"))
}

// The param sets shared by the search-style solvers.
var initParam = BackendParam{Key: "init", Default: "Random", Doc: "ad hoc method producing the initial solution", Check: methodParam}

// The built-in kinds register through the same RegisterBackend seam as
// out-of-tree plugins; one init keeps the listing order independent of
// file-name-alphabetical init sequencing.
func init() {
	RegisterBackend("adhoc", BackendFactory{
		Doc: "one of the paper's seven ad hoc placement methods (§3), stand-alone",
		Params: []BackendParam{
			{Key: "method", Default: "HotSpot", Doc: "placement method (Random, ColLeft, Diag, Cross, Near, Corners, HotSpot)", Check: methodParam},
		},
		New: func(spec Spec) (BackendSolve, error) {
			m, err := placement.MethodFromName(spec.Param("method"))
			if err != nil {
				return nil, err
			}
			p, err := placement.New(m, placement.Options{})
			if err != nil {
				return nil, err
			}
			// Ad hoc placement is a single constructive pass with no phases;
			// the hooks have nothing to observe or stop and are ignored.
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, _ BackendHooks) (BackendResult, error) {
				sol, err := p.Place(eval.Instance(), rng.DeriveString(seed, "solve/adhoc"))
				if err != nil {
					return BackendResult{}, err
				}
				metrics, err := eval.Evaluate(sol)
				return BackendResult{Solution: sol, Metrics: metrics, Evaluations: 1}, err
			}, nil
		},
	})

	RegisterBackend("search", BackendFactory{
		Doc: "the neighborhood search of §4 (best neighbor per phase)",
		Params: []BackendParam{
			{Key: "movement", Default: "swap", Doc: "neighborhood movement (swap, random, perturb)", Check: movementParam},
			initParam,
			{Key: "phases", Default: "61", Doc: "maximum search phases", Check: intParam(1)},
			{Key: "neighbors", Default: "16", Doc: "neighbors examined per phase", Check: intParam(1)},
		},
		New: func(spec Spec) (BackendSolve, error) {
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
				initial, err := initialSolution(spec, eval, seed)
				if err != nil {
					return BackendResult{}, err
				}
				res, err := localsearch.Search(eval, initial, localsearch.Config{
					Movement:          movementFor(spec.Param("movement")),
					MaxPhases:         spec.specInt("phases"),
					NeighborsPerPhase: spec.specInt("neighbors"),
					OnPhase:           h.OnPhase,
					Stop:              h.Stop,
				}, rng.DeriveString(seed, "solve/search"))
				if err != nil {
					return BackendResult{}, err
				}
				return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
			}, nil
		},
	})

	RegisterBackend("hillclimb", BackendFactory{
		Doc: "first-improvement hill climbing (paper future work)",
		Params: []BackendParam{
			{Key: "movement", Default: "perturb", Doc: "neighborhood movement (swap, random, perturb)", Check: movementParam},
			initParam,
			{Key: "steps", Default: "2048", Doc: "maximum proposals", Check: intParam(1)},
			{Key: "noimprove", Default: "256", Doc: "consecutive rejections before stopping", Check: intParam(1)},
		},
		New: func(spec Spec) (BackendSolve, error) {
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
				initial, err := initialSolution(spec, eval, seed)
				if err != nil {
					return BackendResult{}, err
				}
				res, err := localsearch.HillClimb(eval, initial, localsearch.HillClimbConfig{
					Movement:     movementFor(spec.Param("movement")),
					MaxSteps:     spec.specInt("steps"),
					MaxNoImprove: spec.specInt("noimprove"),
					OnPhase:      h.OnPhase,
					Stop:         h.Stop,
				}, rng.DeriveString(seed, "solve/hillclimb"))
				if err != nil {
					return BackendResult{}, err
				}
				return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
			}, nil
		},
	})

	RegisterBackend("anneal", BackendFactory{
		Doc: "simulated annealing under a geometric cooling schedule (paper future work)",
		Params: []BackendParam{
			{Key: "movement", Default: "perturb", Doc: "neighborhood movement (swap, random, perturb)", Check: movementParam},
			initParam,
			{Key: "steps", Default: "4096", Doc: "total proposals", Check: intParam(1)},
			{Key: "starttemp", Default: "0.05", Doc: "initial temperature (fitness units)", Check: floatParam},
			{Key: "endtemp", Default: "0.0005", Doc: "final temperature (must not exceed starttemp)", Check: floatParam},
		},
		New: func(spec Spec) (BackendSolve, error) {
			cfg := localsearch.AnnealConfig{
				Steps:     spec.specInt("steps"),
				StartTemp: spec.specFloat("starttemp"),
				EndTemp:   spec.specFloat("endtemp"),
			}
			// Cross-field checks (endtemp ≤ starttemp) live in the config's
			// Validate; surface them at build time, not first solve.
			probe := cfg
			probe.Movement = movementFor(spec.Param("movement"))
			if err := probe.Validate(); err != nil {
				return nil, err
			}
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
				initial, err := initialSolution(spec, eval, seed)
				if err != nil {
					return BackendResult{}, err
				}
				run := cfg
				run.Movement = movementFor(spec.Param("movement"))
				run.OnPhase = h.OnPhase
				run.Stop = h.Stop
				res, err := localsearch.Anneal(eval, initial, run, rng.DeriveString(seed, "solve/anneal"))
				if err != nil {
					return BackendResult{}, err
				}
				return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
			}, nil
		},
	})

	RegisterBackend("tabu", BackendFactory{
		Doc: "tabu search with aspiration (paper future work)",
		Params: []BackendParam{
			{Key: "movement", Default: "swap", Doc: "neighborhood movement (swap, random, perturb)", Check: movementParam},
			initParam,
			{Key: "phases", Default: "64", Doc: "maximum phases", Check: intParam(1)},
			{Key: "neighbors", Default: "32", Doc: "neighbors examined per phase", Check: intParam(1)},
			{Key: "tenure", Default: "8", Doc: "phases a changed router stays tabu", Check: intParam(1)},
		},
		New: func(spec Spec) (BackendSolve, error) {
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
				initial, err := initialSolution(spec, eval, seed)
				if err != nil {
					return BackendResult{}, err
				}
				res, err := localsearch.Tabu(eval, initial, localsearch.TabuConfig{
					Movement:          movementFor(spec.Param("movement")),
					MaxPhases:         spec.specInt("phases"),
					NeighborsPerPhase: spec.specInt("neighbors"),
					Tenure:            spec.specInt("tenure"),
					OnPhase:           h.OnPhase,
					Stop:              h.Stop,
				}, rng.DeriveString(seed, "solve/tabu"))
				if err != nil {
					return BackendResult{}, err
				}
				return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
			}, nil
		},
	})

	RegisterBackend("ga", BackendFactory{
		Doc: "the genetic algorithm of §5 initialized from an ad hoc method; islands>1 selects the island model",
		Params: []BackendParam{
			{Key: "init", Default: "HotSpot", Doc: "ad hoc method initializing the population", Check: methodParam},
			{Key: "generations", Default: "800", Doc: "number of generations", Check: intParam(1)},
			{Key: "pop", Default: "64", Doc: "population size (per island when islands>1)", Check: intParam(4)},
			{Key: "islands", Default: "1", Doc: "concurrently evolving populations (1 = classic single population)", Check: intParam(1)},
			{Key: "migrateevery", Default: "10", Doc: "generations between island migration barriers", Check: intParam(1)},
			{Key: "migrants", Default: "2", Doc: "elite emigrants per migration edge", Check: intParam(1)},
			{Key: "topology", Default: "ring", Doc: "island migration topology (ring, complete)", Check: topologyParam},
		},
		New: func(spec Spec) (BackendSolve, error) {
			m, err := placement.MethodFromName(spec.Param("init"))
			if err != nil {
				return nil, err
			}
			init, err := ga.NewPlacerInitializer(m, placement.Options{})
			if err != nil {
				return nil, err
			}
			cfg := ga.DefaultConfig()
			cfg.Generations = spec.specInt("generations")
			cfg.PopSize = spec.specInt("pop")
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			if islands := spec.specInt("islands"); islands > 1 {
				topology, err := ga.ParseTopology(spec.Param("topology"))
				if err != nil {
					return nil, err
				}
				icfg := ga.IslandConfig{
					Config:       cfg,
					Islands:      islands,
					MigrateEvery: spec.specInt("migrateevery"),
					Migrants:     spec.specInt("migrants"),
					Topology:     topology,
					FanOut: func(n int, fn func(i int) error) error {
						return forkjoin.ForEachIndexed(n, runtime.GOMAXPROCS(0), fn)
					},
				}
				// Cross-parameter constraints (inbound migrants must not
				// wipe an island) surface at build time, not first solve.
				if err := icfg.Validate(); err != nil {
					return nil, err
				}
				return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
					run := icfg
					// RunIslands drives Stop at migration barriers on the
					// coordinating goroutine with the summed evaluation count,
					// keeping the anytime curve worker-count-invariant.
					run.Config.Stop = h.Stop
					if h.OnPhase != nil {
						// Progress for the island model is the migration
						// barrier: it runs on the coordinating goroutine with
						// monotonic generations, matching the hook contract.
						run.OnBarrier = func(gen int, best wmn.Metrics) {
							h.OnPhase(localsearch.PhaseRecord{Phase: gen, Metrics: best, Accepted: true, Proposed: true})
						}
					}
					res, err := ga.RunIslands(eval, init, run, seed)
					if err != nil {
						return BackendResult{}, err
					}
					return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
				}, nil
			}
			return func(_ context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
				run := cfg
				run.Stop = h.Stop
				if h.OnPhase != nil {
					run.OnGeneration = func(gen int, best wmn.Metrics) {
						h.OnPhase(localsearch.PhaseRecord{Phase: gen, Metrics: best, Accepted: true, Proposed: true})
					}
				}
				res, err := ga.Run(eval, init, run, rng.DeriveString(seed, "solve/ga"))
				if err != nil {
					return BackendResult{}, err
				}
				return BackendResult{Solution: res.Best, Metrics: res.BestMetrics, Evaluations: res.Evaluations}, nil
			}, nil
		},
	})

	// Registered last so "portfolio" closes the built-in kinds listing; its
	// members reference the kinds above.
	RegisterBackend("portfolio", portfolioFactory())
}
