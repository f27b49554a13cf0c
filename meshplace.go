// Package meshplace is a library for mesh-router node placement in
// Wireless Mesh Networks (WMNs), reproducing Xhafa, Sánchez and Barolli,
// "Ad Hoc and Neighborhood Search Methods for Placement of Mesh Routers in
// Wireless Mesh Networks" (ICDCS Workshops 2009).
//
// Given a rectangular deployment area, a fleet of mesh routers (each with
// its own radio coverage radius) and a set of mesh clients at fixed
// positions, the library places the routers to maximize network
// connectivity — the size of the giant component of the router
// connectivity graph — and client coverage. It provides:
//
//   - the seven ad hoc placement methods of the paper's §3 (Random,
//     ColLeft, Diag, Cross, Near, Corners, HotSpot);
//   - the neighborhood search of §4 with the swap and random movements,
//     plus hill-climbing, simulated-annealing and tabu-search extensions;
//   - the genetic algorithm of §5 with ad hoc population initializers;
//   - instance generation with Uniform, Normal, Exponential and Weibull
//     client distributions, plus multi-modal hotspot, ring/corridor and
//     trace-driven layouts;
//   - a reproducible experiment runner (RunPaper) whose checked-in
//     runs/xhafa09 grid regenerates the paper's Tables 1–3 and Figure 4,
//     and a versioned scenario corpus with a solver suite for robustness
//     studies (RunScenarioSuite).
//
// The quickest path from zero to a placed network:
//
//	inst, _ := meshplace.Generate(meshplace.DefaultGenConfig())
//	eval, _ := meshplace.NewEvaluator(inst, meshplace.EvalOptions{})
//	sol, _ := meshplace.Place(meshplace.HotSpot, inst, 42)
//	fmt.Println(eval.MustEvaluate(sol))
//
// All randomness flows from explicit seeds; identical seeds give identical
// results on every platform.
package meshplace

import (
	"meshplace/internal/dist"
	"meshplace/internal/geom"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Core model types. See the corresponding methods on each type for the
// full API.
type (
	// Point is a location in the deployment plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle with inclusive Min and exclusive
	// Max corners.
	Rect = geom.Rect
	// Instance is one placement problem: area, router radii and client
	// positions.
	Instance = wmn.Instance
	// Solution assigns a position to every router of an instance.
	Solution = wmn.Solution
	// Metrics holds the measurements of one solution: giant component,
	// coverage, link count and weighted fitness.
	Metrics = wmn.Metrics
	// GenConfig describes an instance to generate.
	GenConfig = wmn.GenConfig
	// EvalOptions configures the objective: link model, coverage rule and
	// fitness weights.
	EvalOptions = wmn.EvalOptions
	// Evaluator measures solutions against one instance; safe for
	// concurrent use.
	Evaluator = wmn.Evaluator
	// IncrementalEvaluator tracks one evolving solution and re-evaluates
	// neighbors in O(moved routers) per step instead of re-scanning the
	// whole instance; every search driver rides it internally. Not safe
	// for concurrent use.
	IncrementalEvaluator = wmn.IncrementalEvaluator
	// Weights combines connectivity and coverage into a scalar fitness.
	Weights = wmn.Weights
	// LinkModel selects when two routers are considered connected.
	LinkModel = wmn.LinkModel
	// CoverageModel selects which routers count toward client coverage.
	CoverageModel = wmn.CoverageModel
	// DistSpec describes a client distribution; build one with
	// UniformClients, NormalClients, ExponentialClients or WeibullClients.
	DistSpec = dist.Spec
	// Rand is the deterministic random generator used across the library.
	Rand = rng.Rand
)

// Link and coverage model constants (see wmn documentation for semantics).
const (
	// LinkCoverageOverlap links routers whose coverage disks overlap
	// (d ≤ r_i + r_j); the paper's model and the default.
	LinkCoverageOverlap = wmn.LinkCoverageOverlap
	// LinkUnitDisk links routers only within both radii (d ≤ min(r_i, r_j)).
	LinkUnitDisk = wmn.LinkUnitDisk
	// CoverAnyRouter counts clients covered by any router (default).
	CoverAnyRouter = wmn.CoverAnyRouter
	// CoverGiantOnly counts only clients covered from the giant component.
	CoverGiantOnly = wmn.CoverGiantOnly
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRand returns a deterministic random generator for the seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// DefaultGenConfig returns the paper's benchmark instance configuration:
// 128×128 area, 64 routers with radii in [2, 4.5], 192 Normal-distributed
// clients.
func DefaultGenConfig() GenConfig { return wmn.DefaultGenConfig() }

// Generate builds a reproducible instance from the configuration.
func Generate(cfg GenConfig) (*Instance, error) { return wmn.Generate(cfg) }

// NewEvaluator builds an evaluator for the instance. Zero options select
// the paper's model: coverage-overlap links, any-router coverage, 0.7/0.3
// connectivity/coverage weights.
func NewEvaluator(in *Instance, opts EvalOptions) (*Evaluator, error) {
	return wmn.NewEvaluator(in, opts)
}

// DefaultWeights returns the 0.7 connectivity / 0.3 coverage fitness split.
func DefaultWeights() Weights { return wmn.DefaultWeights() }

// NewIncrementalEvaluator wraps the evaluator's instance plus a starting
// solution for O(Δ) re-evaluation: Apply moves some routers and returns the
// new metrics (identical, bit for bit, to Evaluate on the same positions),
// Revert undoes the latest Apply, Rebase diffs against an arbitrary target.
func NewIncrementalEvaluator(eval *Evaluator, sol Solution) (*IncrementalEvaluator, error) {
	return wmn.NewIncrementalEvaluator(eval, sol)
}

// UniformClients describes clients spread uniformly over the area.
func UniformClients() DistSpec { return dist.UniformSpec() }

// NormalClients describes clients clustered around (meanX, meanY) with the
// given per-coordinate standard deviation.
func NormalClients(meanX, meanY, sigma float64) DistSpec {
	return dist.NormalSpec(meanX, meanY, sigma)
}

// ExponentialClients describes clients piled toward the area's origin
// corner with the given per-coordinate mean distance.
func ExponentialClients(mean float64) DistSpec { return dist.ExponentialSpec(mean) }

// WeibullClients describes clients clustered near the origin corner with
// Weibull(shape, scale) coordinates — the softest of the hotspot layouts.
func WeibullClients(shape, scale float64) DistSpec { return dist.WeibullSpec(shape, scale) }

// ClientHotspot is one mode of a multi-modal hotspot layout: a Gaussian
// cluster around (X, Y) with standard deviation Sigma, selected with
// probability proportional to Weight.
type ClientHotspot = dist.Hotspot

// HotspotClients describes clients drawn from a weighted mixture of up to
// dist.MaxHotspots Gaussian hotspots — the multi-modal generalization of
// NormalClients.
func HotspotClients(hotspots ...ClientHotspot) DistSpec { return dist.HotspotsSpec(hotspots...) }

// RingClients describes clients spread uniformly over the annulus between
// the inner and outer radii around (centerX, centerY) — corridor and ring
// topologies.
func RingClients(centerX, centerY, inner, outer float64) DistSpec {
	return dist.RingSpec(centerX, centerY, inner, outer)
}

// TraceClients describes clients replayed from a JSON point file (an array
// of {"x":..,"y":..} objects) or from a trace registered with
// RegisterClientTrace, drawn with replacement.
func TraceClients(path string) DistSpec { return dist.TraceSpec(path) }

// RegisterClientTrace publishes an in-memory trace, making
// TraceClients(name) buildable without touching the filesystem.
func RegisterClientTrace(name string, points []Point) { dist.RegisterTrace(name, points) }

// ParseClients parses the CLI syntax for client distributions, e.g.
// "uniform", "normal:mx=64,my=64,sigma=12.8", "exponential:mean=32",
// "weibull:shape=1.5,scale=48", "hotspots:x1=32,y1=32,s1=8,w1=1,x2=...",
// "ring:cx=64,cy=64,inner=16,outer=32" or "trace:file=points.json".
func ParseClients(text string) (DistSpec, error) { return dist.ParseSpec(text) }

// PlacementMethod identifies one of the seven ad hoc methods.
type PlacementMethod = placement.Method

// The seven ad hoc placement methods of the paper's §3.
const (
	Random  = placement.Random
	ColLeft = placement.ColLeft
	Diag    = placement.Diag
	Cross   = placement.Cross
	Near    = placement.Near
	Corners = placement.Corners
	HotSpot = placement.HotSpot
)

// PlacementOptions tunes the ad hoc methods (pattern fraction, jitter,
// per-method geometry). The zero value selects calibrated defaults.
type PlacementOptions = placement.Options

// Placer produces solutions for instances; obtain one with NewPlacer.
type Placer = placement.Placer

// PlacementMethods returns all seven methods in the paper's order.
func PlacementMethods() []PlacementMethod { return placement.Methods() }

// PlacementMethodFromName parses a method name ("HotSpot", "colleft", ...).
func PlacementMethodFromName(name string) (PlacementMethod, error) {
	return placement.MethodFromName(name)
}

// NewPlacer constructs the placer for a method.
func NewPlacer(m PlacementMethod, opts PlacementOptions) (Placer, error) {
	return placement.New(m, opts)
}

// Place runs one ad hoc method with default options on the instance,
// seeding its randomness with seed.
func Place(m PlacementMethod, in *Instance, seed uint64) (Solution, error) {
	p, err := placement.New(m, placement.Options{})
	if err != nil {
		return Solution{}, err
	}
	return p.Place(in, rng.New(seed))
}
