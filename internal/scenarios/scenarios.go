// Package scenarios is the robustness-study subsystem: a named, versioned
// corpus of placement scenarios spanning every client layout of
// internal/dist — the paper's four distributions plus the extended
// hotspots, ring and trace layouts — across the three benchmark-family
// scales, and a suite runner that sweeps solvers over the corpus through
// the forkjoin.ForEachIndexed fork-join.
//
// The corpus is a reproducibility artifact: GenerateCorpus(seed, workers)
// yields byte-identical instances at any worker count, and the per-version
// golden hashes checked in next to the tests pin that property across
// commits. The trace scenarios draw from in-memory traces registered at
// init (see dist.RegisterTrace), so the corpus never touches the
// filesystem.
package scenarios

import (
	"fmt"
	"runtime"

	"meshplace/internal/dist"
	"meshplace/internal/forkjoin"
	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Version names the current corpus generation. Any change to the scenario
// set, a layout's parameters or the trace points is a new corpus version:
// bump this constant and regenerate the golden hashes.
const Version = "v1"

// traceSeed pins the synthetic corpus traces independently of the
// caller's corpus seed, so the trace points are part of the corpus version
// rather than of any particular generation run.
const traceSeed = 0x5ce7a210

// Scenario is one entry of the corpus: a named generation config.
type Scenario struct {
	// Name is "<version>-<scale>-<layout>", e.g. "v1-base-hotspots".
	Name string
	// Scale and Layout are the two coordinates of the corpus grid.
	Scale  string
	Layout string
	// Gen is the full generation config, seeded for this scenario.
	Gen wmn.GenConfig
}

// Info is the catalog view of one scenario, served by GET /v1/scenarios.
type Info struct {
	Name    string  `json:"name"`
	Scale   string  `json:"scale"`
	Layout  string  `json:"layout"`
	Side    float64 `json:"side"`
	Routers int     `json:"routers"`
	Clients int     `json:"clients"`
	// Dist is the layout's spec in dist.ParseSpec syntax.
	Dist string `json:"dist"`
}

// familyScale names one instance size of the corpus.
type familyScale struct {
	// label names the scale ("half", "base", "double").
	label string
	// side is the square area's side length; routers and clients scale
	// with the area so density is preserved.
	side    float64
	routers int
	clients int
}

// familyScales returns the three corpus scales. The base scale is the
// paper's 128×128 / 64-router / 192-client instance (§5.1); the half and
// double scales keep router and client densities constant.
func familyScales() []familyScale {
	return []familyScale{
		{label: "half", side: 91, routers: 32, clients: 96},
		{label: "base", side: 128, routers: 64, clients: 192},
		{label: "double", side: 181, routers: 128, clients: 384},
	}
}

// familyDistributions returns the four §5.1 distributions scaled to an
// area of the given side (the base parameters are defined on side 128), in
// the paper's kind order. Table 1's caption fixes Normal(μ=64, σ=128/10);
// the paper reports no Exponential or Weibull parameters, so those are
// calibrated to produce comparable hotspot layouts (README, "Paper
// reproduction").
func familyDistributions(side float64) []dist.Spec {
	f := side / 128
	return []dist.Spec{
		dist.UniformSpec(),
		dist.NormalSpec(side/2, side/2, 12.8*f),
		dist.ExponentialSpec(32 * f),
		dist.WeibullSpec(1.8, 36*f),
	}
}

// layout pairs a layout name with its distribution spec for one scale.
type layout struct {
	name string
	spec dist.Spec
}

// layouts returns the corpus layouts scaled to an area of the given side:
// the four paper distributions followed by the extended kinds.
func layouts(scale familyScale) []layout {
	side := scale.side
	var out []layout
	for _, spec := range familyDistributions(side) {
		out = append(out, layout{name: string(spec.Kind), spec: spec})
	}
	return append(out,
		layout{name: "hotspots", spec: dist.HotspotsSpec(
			dist.Hotspot{X: 0.25 * side, Y: 0.25 * side, Sigma: 0.08 * side, Weight: 2},
			dist.Hotspot{X: 0.75 * side, Y: 0.3 * side, Sigma: 0.06 * side, Weight: 1},
			dist.Hotspot{X: 0.5 * side, Y: 0.8 * side, Sigma: 0.1 * side, Weight: 1.5},
		)},
		layout{name: "ring", spec: dist.RingSpec(side/2, side/2, 0.25*side, 0.4*side)},
		layout{name: "trace", spec: dist.TraceSpec(TracePath(scale.label))},
	)
}

// TracePath returns the registered trace name backing the trace scenario
// of one scale ("half", "base", "double"). The "mem:" prefix signals that
// the path resolves in dist's trace registry, not on disk.
func TracePath(scaleLabel string) string {
	return fmt.Sprintf("mem:scenarios/%s/%s", Version, scaleLabel)
}

// init registers the corpus traces: one per scale, a jittered grid of
// sites covering the scale's area — the classic shape of measured access
// point surveys. The points derive from traceSeed alone, so they are fixed
// per corpus version.
func init() {
	for _, scale := range familyScales() {
		r := rng.DeriveString(traceSeed, "scenarios/trace/"+scale.label)
		const grid = 8
		cell := scale.side / grid
		pts := make([]geom.Point, 0, grid*grid)
		for gy := 0; gy < grid; gy++ {
			for gx := 0; gx < grid; gx++ {
				pts = append(pts, geom.Pt(
					(float64(gx)+0.15+0.7*r.Float64())*cell,
					(float64(gy)+0.15+0.7*r.Float64())*cell,
				))
			}
		}
		dist.RegisterTrace(TracePath(scale.label), pts)
	}
}

// Corpus returns the full scenario corpus for a generation seed: every
// layout × every scale, in a fixed order (scales outer,
// layouts inner). Per-scenario seeds derive from the corpus seed and the
// scenario name, so scenarios stay decorrelated and reordering the corpus
// cannot silently change any instance.
func Corpus(seed uint64) []Scenario {
	base := wmn.DefaultGenConfig()
	var out []Scenario
	for _, scale := range familyScales() {
		for _, l := range layouts(scale) {
			name := fmt.Sprintf("%s-%s-%s", Version, scale.label, l.name)
			out = append(out, Scenario{
				Name:   name,
				Scale:  scale.label,
				Layout: l.name,
				Gen: wmn.GenConfig{
					Name:       name,
					Width:      scale.side,
					Height:     scale.side,
					NumRouters: scale.routers,
					NumClients: scale.clients,
					RadiusMin:  base.RadiusMin,
					RadiusMax:  base.RadiusMax,
					ClientDist: l.spec,
					Seed:       rng.DeriveString(seed, "scenarios/"+name).Uint64(),
				},
			})
		}
	}
	return out
}

// Describe returns the seed-independent catalog of the corpus, the payload
// of GET /v1/scenarios.
func Describe() []Info {
	scs := Corpus(0)
	out := make([]Info, len(scs))
	for i, sc := range scs {
		out[i] = Info{
			Name:    sc.Name,
			Scale:   sc.Scale,
			Layout:  sc.Layout,
			Side:    sc.Gen.Width,
			Routers: sc.Gen.NumRouters,
			Clients: sc.Gen.NumClients,
			Dist:    sc.Gen.ClientDist.String(),
		}
	}
	return out
}

// Filter returns the scenarios whose scale matches one of the given
// labels; an empty label set keeps everything.
func Filter(scs []Scenario, scales ...string) []Scenario {
	if len(scales) == 0 {
		return scs
	}
	keep := map[string]bool{}
	for _, s := range scales {
		keep[s] = true
	}
	var out []Scenario
	for _, sc := range scs {
		if keep[sc.Scale] {
			out = append(out, sc)
		}
	}
	return out
}

// GenerateCorpus generates every instance of the corpus, fanning the work
// across at most workers goroutines (0 = one per CPU). Output order follows Corpus order and each instance
// derives only from its own scenario seed, so the result is byte-identical
// at any worker count.
func GenerateCorpus(seed uint64, workers int) ([]*wmn.Instance, error) {
	return GenerateScenarios(Corpus(seed), workers)
}

// GenerateScenarios generates the instances of an explicit scenario list
// (e.g. a Filter selection), preserving order.
func GenerateScenarios(scs []Scenario, workers int) ([]*wmn.Instance, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]*wmn.Instance, len(scs))
	err := forkjoin.ForEachIndexed(len(scs), workers, func(i int) error {
		in, err := wmn.Generate(scs[i].Gen)
		if err != nil {
			return fmt.Errorf("scenarios: %s: %w", scs[i].Name, err)
		}
		out[i] = in
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
