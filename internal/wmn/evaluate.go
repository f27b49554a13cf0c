package wmn

import (
	"fmt"

	"meshplace/internal/geom"
	"meshplace/internal/graph"
	"meshplace/internal/spatial"
)

// LinkModel selects the rule deciding when two routers are connected.
type LinkModel int

const (
	// LinkCoverageOverlap links routers whose coverage disks overlap:
	// d(i,j) ≤ r_i + r_j. This matches the paper's model of routers with
	// individual coverage areas and is the default.
	LinkCoverageOverlap LinkModel = iota + 1
	// LinkUnitDisk links routers only when each can hear the other:
	// d(i,j) ≤ min(r_i, r_j). A stricter, symmetric-reception rule that
	// fragments placements far more at the paper's radii.
	LinkUnitDisk
)

// String implements fmt.Stringer.
func (m LinkModel) String() string {
	switch m {
	case LinkCoverageOverlap:
		return "coverage-overlap"
	case LinkUnitDisk:
		return "unit-disk"
	default:
		return fmt.Sprintf("LinkModel(%d)", int(m))
	}
}

// CoverageModel selects which routers count toward client coverage.
type CoverageModel int

const (
	// CoverAnyRouter counts a client as covered when any router's disk
	// contains it (the paper's definition; default).
	CoverAnyRouter CoverageModel = iota + 1
	// CoverGiantOnly counts only routers inside the giant component, the
	// stricter definition used by follow-up work ("connected coverage").
	CoverGiantOnly
)

// String implements fmt.Stringer.
func (m CoverageModel) String() string {
	switch m {
	case CoverAnyRouter:
		return "any-router"
	case CoverGiantOnly:
		return "giant-only"
	default:
		return fmt.Sprintf("CoverageModel(%d)", int(m))
	}
}

// Weights combines the two objectives into one scalar fitness. The paper
// treats connectivity as more important than coverage (§2); the defaults
// encode that priority.
type Weights struct {
	Connectivity float64 `json:"connectivity"`
	Coverage     float64 `json:"coverage"`
}

// DefaultWeights returns the 0.7/0.3 split used throughout the experiments.
func DefaultWeights() Weights { return Weights{Connectivity: 0.7, Coverage: 0.3} }

// Metrics holds everything measured about one solution.
type Metrics struct {
	// GiantSize is the number of routers in the largest connected
	// component — the paper's primary objective.
	GiantSize int `json:"giantSize"`
	// Covered is the number of clients inside at least one counted
	// router's coverage disk — the paper's secondary objective.
	Covered int `json:"covered"`
	// Links is the number of router-router edges.
	Links int `json:"links"`
	// Components is the number of connected components.
	Components int `json:"components"`
	// Fitness is the weighted scalar the search methods maximize.
	Fitness float64 `json:"fitness"`
}

// String renders a compact summary.
func (m Metrics) String() string {
	return fmt.Sprintf("giant=%d covered=%d links=%d components=%d fitness=%.4f",
		m.GiantSize, m.Covered, m.Links, m.Components, m.Fitness)
}

// BetterLex compares a against b lexicographically: first giant-component
// size, then coverage. It implements the paper's "connectivity is more
// important than coverage" as a strict priority rather than a weighted sum.
func BetterLex(a, b Metrics) bool {
	if a.GiantSize != b.GiantSize {
		return a.GiantSize > b.GiantSize
	}
	return a.Covered > b.Covered
}

// EvalOptions configures an Evaluator. Zero fields fall back to defaults.
type EvalOptions struct {
	Link     LinkModel
	Coverage CoverageModel
	Weights  Weights
	// BruteForce disables the spatial index and evaluates with the O(N²)
	// pairwise scan. Used by the spatial-index ablation and as a cross
	// check in tests.
	BruteForce bool
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Link == 0 {
		o.Link = LinkCoverageOverlap
	}
	if o.Coverage == 0 {
		o.Coverage = CoverAnyRouter
	}
	if o.Weights == (Weights{}) {
		o.Weights = DefaultWeights()
	}
	return o
}

// Evaluator measures solutions against one instance. It precomputes a
// spatial index over the (fixed) client positions once, so evaluating a
// solution costs O(N·k) for link building plus O(N·c) for coverage, with k
// and c the local neighbor counts. Evaluators are safe for concurrent use.
type Evaluator struct {
	inst        *Instance
	opts        EvalOptions
	clientIndex *spatial.Index
}

// NewEvaluator builds an evaluator for the instance.
func NewEvaluator(in *Instance, opts EvalOptions) (*Evaluator, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.NumRouters() == 0 {
		return nil, errNoRouters
	}
	e := &Evaluator{inst: in, opts: opts.withDefaults()}
	if len(in.Clients) > 0 && !e.opts.BruteForce {
		cell := in.MaxRadius()
		if cell <= 0 {
			cell = 1
		}
		idx, err := spatial.NewIndex(in.Area(), in.Clients, cell)
		if err != nil {
			return nil, fmt.Errorf("wmn: client index: %w", err)
		}
		e.clientIndex = idx
	}
	return e, nil
}

// Instance returns the instance being evaluated.
func (e *Evaluator) Instance() *Instance { return e.inst }

// Options returns the evaluator's resolved options.
func (e *Evaluator) Options() EvalOptions { return e.opts }

// Evaluate measures the solution. The solution must match the instance;
// out-of-range solutions yield an error rather than a panic.
func (e *Evaluator) Evaluate(sol Solution) (Metrics, error) {
	if len(sol.Positions) != e.inst.NumRouters() {
		return Metrics{}, fmt.Errorf("wmn: evaluate: solution has %d positions for %d routers",
			len(sol.Positions), e.inst.NumRouters())
	}
	g := e.buildRouterGraph(sol)
	labels, sizes := g.Components()
	giant, giantID := 0, -1
	for id, sz := range sizes {
		if sz > giant {
			giant, giantID = sz, id
		}
	}
	covered := e.countCovered(sol, labels, giantID)

	n, mClients := e.inst.NumRouters(), e.inst.NumClients()
	fitness := e.opts.Weights.Connectivity * float64(giant) / float64(n)
	if mClients > 0 {
		fitness += e.opts.Weights.Coverage * float64(covered) / float64(mClients)
	}
	return Metrics{
		GiantSize:  giant,
		Covered:    covered,
		Links:      g.NumEdges(),
		Components: len(sizes),
		Fitness:    fitness,
	}, nil
}

// MustEvaluate is Evaluate for solutions known valid (internal search
// loops); it panics on structural mismatch, which indicates a library bug.
func (e *Evaluator) MustEvaluate(sol Solution) Metrics {
	m, err := e.Evaluate(sol)
	if err != nil {
		panic(err)
	}
	return m
}

// newRouterIndex builds the per-evaluation router index. A package variable
// so tests can force index construction to fail and pin the brute-force
// fallback below.
var newRouterIndex = spatial.NewIndex

// buildRouterGraph links routers according to the link model.
func (e *Evaluator) buildRouterGraph(sol Solution) *graph.Graph {
	n := len(sol.Positions)
	g := graph.New(n)
	if e.opts.BruteForce || n <= smallN {
		return e.bruteForceLinks(sol, g)
	}
	// Index router positions; candidate pairs are within 2·rmax.
	cell := 2 * e.inst.MaxRadius()
	if cell <= 0 {
		cell = 1
	}
	idx, err := newRouterIndex(e.inst.Area(), sol.Positions, cell)
	if err != nil {
		// The area is validated non-empty, so this cannot happen; fall
		// back to the exact scan rather than failing evaluation.
		return e.bruteForceLinks(sol, g)
	}
	reach := 2 * e.inst.MaxRadius()
	for i := 0; i < n; i++ {
		idx.VisitWithin(sol.Positions[i], reach, func(j int) {
			if j > i && e.linked(sol, i, j) {
				_ = g.AddEdge(i, j)
			}
		})
	}
	return g
}

// bruteForceLinks adds every linked pair with the exact O(N²) scan — the
// single implementation behind both the smallN fast path and the
// index-construction fallback, so the two can never drift.
func (e *Evaluator) bruteForceLinks(sol Solution, g *graph.Graph) *graph.Graph {
	n := len(sol.Positions)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.linked(sol, i, j) {
				_ = g.AddEdge(i, j) // indices in range by construction
			}
		}
	}
	return g
}

// smallN is the router count below which the O(N²) scan beats building a
// spatial index per evaluation (measured by BenchmarkAblationSpatialIndex).
const smallN = 128

func (e *Evaluator) linked(sol Solution, i, j int) bool {
	d2 := sol.Positions[i].Dist2(sol.Positions[j])
	ri, rj := e.inst.Radii[i], e.inst.Radii[j]
	var reach float64
	switch e.opts.Link {
	case LinkUnitDisk:
		reach = ri
		if rj < reach {
			reach = rj
		}
	default: // LinkCoverageOverlap
		reach = ri + rj
	}
	return d2 <= reach*reach
}

// countCovered counts clients inside the disk of a counted router.
func (e *Evaluator) countCovered(sol Solution, labels []int, giantID int) int {
	if e.inst.NumClients() == 0 {
		return 0
	}
	covered := make([]bool, e.inst.NumClients())
	for i, p := range sol.Positions {
		if e.opts.Coverage == CoverGiantOnly && labels[i] != giantID {
			continue
		}
		e.visitClientsWithin(p, e.inst.Radii[i], func(c int) { covered[c] = true })
	}
	n := 0
	for _, ok := range covered {
		if ok {
			n++
		}
	}
	return n
}

func (e *Evaluator) visitClientsWithin(p geom.Point, r float64, fn func(c int)) {
	if e.clientIndex != nil {
		e.clientIndex.VisitWithin(p, r, fn)
		return
	}
	r2 := r * r
	for c, q := range e.inst.Clients {
		if p.Dist2(q) <= r2 {
			fn(c)
		}
	}
}
