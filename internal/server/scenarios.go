package server

import (
	"net/http"

	"meshplace/internal/scenarios"
)

// The scenario-corpus surface of the service: GET /v1/scenarios lists the
// versioned robustness corpus, and the suite helpers below wire the solver
// registry into scenarios.RunSuite (the scenarios package takes solvers
// structurally, so it never imports this one).

// ScenarioCatalog is the payload of GET /v1/scenarios.
type ScenarioCatalog struct {
	Version   string           `json:"version"`
	Scenarios []scenarios.Info `json:"scenarios"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ScenarioCatalog{
		Version:   scenarios.Version,
		Scenarios: scenarios.Describe(),
	})
}

// islandSuiteSpec is the island-model GA configuration the default suite
// sweep carries alongside the per-kind defaults: four ring-coupled
// islands of 32 for 200 generations — a deliberately lighter variant
// (4 × 32 × 200 = 25,600 evaluations, half the classic default's
// 64 × 800) that exercises migration across every corpus layout without
// doubling the sweep's cost. Its report cells gauge the island machinery,
// not an equal-budget quality comparison against the classic GA.
const islandSuiteSpec = "ga:generations=200,pop=32,islands=4,migrateevery=25"

// DefaultSuiteSpecs returns one canonical default spec per registered
// solver kind, plus the island-model GA variant — the suite's "sweep
// everything" selection. Kinds registered with ExcludeFromSuite (backends
// that need external context, like the remote proxy's target URL) are
// skipped: their defaults name no runnable configuration.
func DefaultSuiteSpecs() []Spec {
	kinds := Kinds()
	out := make([]Spec, 0, len(kinds)+1)
	for _, kind := range kinds {
		if registry[kind].ExcludeFromSuite {
			continue
		}
		spec, err := ParseSpec(kind)
		if err != nil {
			panic("server: default spec of registered kind does not parse: " + err.Error())
		}
		out = append(out, spec)
	}
	spec, err := ParseSpec(islandSuiteSpec)
	if err != nil {
		panic("server: island suite spec does not parse: " + err.Error())
	}
	return append(out, spec)
}

// SuiteSolvers builds the named solvers for a spec list, labeling each
// with its canonical spec string. An empty list selects DefaultSuiteSpecs.
func SuiteSolvers(specs []Spec) ([]scenarios.NamedSolver, error) {
	if len(specs) == 0 {
		specs = DefaultSuiteSpecs()
	}
	out := make([]scenarios.NamedSolver, 0, len(specs))
	for _, spec := range specs {
		sv, err := NewSolver(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, scenarios.NamedSolver{Name: spec.String(), Solver: sv})
	}
	return out, nil
}

// RunSuite sweeps the given solver specs (empty = every registered kind's
// default) over the scenario list with the suite config's workers.
func RunSuite(specs []Spec, scs []scenarios.Scenario, cfg scenarios.SuiteConfig) (*scenarios.Report, error) {
	solvers, err := SuiteSolvers(specs)
	if err != nil {
		return nil, err
	}
	return scenarios.RunSuite(scs, solvers, cfg)
}
