package scenarios

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"time"

	"meshplace/internal/experiments"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Solver is the slice of the placement-server solver interface the suite
// needs. server.Solver satisfies it structurally, so the suite can sweep
// every registered solver kind without this package importing the server
// (which imports scenarios for its catalog endpoint). The suite always
// solves to completion (Background context): report cells pin full
// deterministic outputs, never deadline incumbents.
type Solver interface {
	Solve(ctx context.Context, eval *wmn.Evaluator, seed uint64) (wmn.Solution, wmn.Metrics, error)
}

// NamedSolver labels a solver for the report, normally with its canonical
// spec string.
type NamedSolver struct {
	Name   string
	Solver Solver
}

// SuiteConfig parameterizes RunSuite. The zero value runs serially with
// the paper's evaluation model.
type SuiteConfig struct {
	// Seed drives corpus generation and every per-run solver stream.
	Seed uint64
	// Workers bounds the fan-out (0 = one per CPU).
	Workers int
	// Eval configures the objective; the zero value is the paper's model.
	Eval wmn.EvalOptions
	// Clock stamps each cell's advisory Runtime field; nil defaults to
	// the wall clock. Runtime is the only column Fingerprint excludes, so
	// the deterministic report is provably wall-clock-free: nothing else
	// in this package may read time (enforced by wmnlint's wallclock
	// rule), and tests inject a fixed clock to pin that the fingerprint
	// is identical with no clock at all.
	Clock func() time.Time
}

// Result is one (scenario, solver) cell of the suite report. All fields
// except Runtime are deterministic in (corpus version, seed, spec), which
// is what Report.Fingerprint pins.
type Result struct {
	Scenario     string      `json:"scenario"`
	InstanceHash string      `json:"instanceHash"`
	Solver       string      `json:"solver"`
	Seed         uint64      `json:"seed"`
	Metrics      wmn.Metrics `json:"metrics"`
	// Connectivity is the giant-component fraction of the routers and
	// Coverage the covered fraction of the clients — the two objectives
	// normalized so cells are comparable across scales.
	Connectivity float64 `json:"connectivity"`
	Coverage     float64 `json:"coverage"`
	// Runtime is the wall-clock solve time. Excluded from Fingerprint.
	Runtime time.Duration `json:"runtime"`
}

// Report is the output of one suite run: a cell per (scenario, solver)
// pair in corpus-major order.
type Report struct {
	Version string   `json:"version"`
	Seed    uint64   `json:"seed"`
	Results []Result `json:"results"`
}

// RunSuite sweeps every solver over every scenario: instances are
// generated first (fanned by index), then the scenario × solver grid runs
// as independent units fanned the same way, merged by unit index. Each
// unit's randomness derives from (seed, scenario, solver name) only, so
// the report is byte-identical at any worker count.
func RunSuite(scs []Scenario, solvers []NamedSolver, cfg SuiteConfig) (*Report, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("scenarios: suite needs at least one scenario")
	}
	if len(solvers) == 0 {
		return nil, fmt.Errorf("scenarios: suite needs at least one solver")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now //wmnlint:allow wallclock — Runtime stamps only; every Fingerprint-pinned column is clock-free
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	instances := make([]*wmn.Instance, len(scs))
	generate := func(i int) error {
		in, err := wmn.Generate(scs[i].Gen)
		if err != nil {
			return fmt.Errorf("scenarios: %s: %w", scs[i].Name, err)
		}
		instances[i] = in
		return nil
	}
	if err := experiments.ForEachIndexed(len(scs), workers, generate); err != nil {
		return nil, err
	}
	evals := make([]*wmn.Evaluator, len(instances))
	hashes := make([]string, len(instances))
	for i, in := range instances {
		eval, err := wmn.NewEvaluator(in, cfg.Eval)
		if err != nil {
			return nil, fmt.Errorf("scenarios: %s: %w", scs[i].Name, err)
		}
		evals[i] = eval
		hashes[i] = wmn.HashInstance(in)
	}

	n := len(scs) * len(solvers)
	results := make([]Result, n)
	unit := func(i int) error {
		si, vi := i/len(solvers), i%len(solvers)
		sc, sv := scs[si], solvers[vi]
		runSeed := rng.DeriveString(cfg.Seed, "scenarios/suite/"+sc.Name+"/"+sv.Name).Uint64()
		start := clock()
		sol, metrics, err := sv.Solver.Solve(context.Background(), evals[si], runSeed)
		if err != nil {
			return fmt.Errorf("scenarios: %s × %s: %w", sc.Name, sv.Name, err)
		}
		if err := sol.Validate(evals[si].Instance()); err != nil {
			return fmt.Errorf("scenarios: %s × %s: %w", sc.Name, sv.Name, err)
		}
		in := evals[si].Instance()
		results[i] = Result{
			Scenario:     sc.Name,
			InstanceHash: hashes[si],
			Solver:       sv.Name,
			Seed:         runSeed,
			Metrics:      metrics,
			Connectivity: float64(metrics.GiantSize) / float64(in.NumRouters()),
			Coverage:     float64(metrics.Covered) / float64(max(in.NumClients(), 1)),
			Runtime:      clock().Sub(start),
		}
		return nil
	}
	if err := experiments.ForEachIndexed(n, workers, unit); err != nil {
		return nil, err
	}
	return &Report{Version: Version, Seed: cfg.Seed, Results: results}, nil
}

// Fingerprint hashes the deterministic columns of the report (everything
// but Runtime) with FNV-1a. Equal fingerprints across worker counts,
// machines and commits mean the corpus and every solver behaved
// identically — the suite's reproducibility check in one string.
func (r *Report) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d\n", r.Version, r.Seed)
	for _, res := range r.Results {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|%d|%d|%s\n",
			res.Scenario, res.InstanceHash, res.Solver, res.Seed,
			res.Metrics.GiantSize, res.Metrics.Covered, res.Metrics.Links,
			res.Metrics.Components, strconv.FormatFloat(res.Metrics.Fitness, 'g', -1, 64))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Render writes the report as a fixed-width table, one line per cell,
// followed by the fingerprint.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "scenario corpus %s, seed %d: %d results\n", r.Version, r.Seed, len(r.Results))
	fmt.Fprintf(w, "%-24s %-36s %6s %6s %8s %10s\n", "scenario", "solver", "giant", "cover", "fitness", "runtime")
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-24s %-36s %5.1f%% %5.1f%% %8.4f %10s\n",
			res.Scenario, res.Solver, 100*res.Connectivity, 100*res.Coverage,
			res.Metrics.Fitness, res.Runtime.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "fingerprint %s\n", r.Fingerprint())
}
