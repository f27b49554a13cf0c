package meshplace_test

// Ablation and hot-path benchmarks of the library facade:
//
//   - BenchmarkAblation* quantify the modelling and operator choices the
//     reproduction rests on (link model, pattern noise, fitness weights, GA
//     operators, the swap movement's virtual slot, the spatial index).
//   - BenchmarkEvaluate, BenchmarkPlacement and BenchmarkSwapPropose time
//     the hot paths; BenchmarkSwapPropose feeds a benchdiff ratio gate.
//
// The paper's Tables 1–3 and Figure 4 are not benchmarks: they are the
// drift-gated runs/xhafa09 report grid (`make paper-check`).

import (
	"testing"

	"meshplace"
	"meshplace/internal/ga"
	"meshplace/internal/localsearch"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// --- Ablations ---------------------------------------------------------------

func benchInstance(b *testing.B) *wmn.Instance {
	b.Helper()
	in, err := wmn.Generate(wmn.DefaultGenConfig())
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAblationLinkModel compares the coverage-overlap link rule (the
// paper's model) against the stricter unit-disk rule on identical HotSpot
// placements.
func BenchmarkAblationLinkModel(b *testing.B) {
	in := benchInstance(b)
	sol, err := meshplace.Place(meshplace.HotSpot, in, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, link := range []wmn.LinkModel{wmn.LinkCoverageOverlap, wmn.LinkUnitDisk} {
		link := link
		b.Run(link.String(), func(b *testing.B) {
			eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{Link: link})
			if err != nil {
				b.Fatal(err)
			}
			var giant int
			for i := 0; i < b.N; i++ {
				giant = eval.MustEvaluate(sol).GiantSize
			}
			b.ReportMetric(float64(giant), "giant")
		})
	}
}

// BenchmarkAblationPatternFraction shows how the §3 "most placements follow
// the pattern" noise level changes the Diag stand-alone giant.
func BenchmarkAblationPatternFraction(b *testing.B) {
	in := benchInstance(b)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, fraction := range []float64{1.0, 0.85, 0.6} {
		fraction := fraction
		b.Run(formatFraction(fraction), func(b *testing.B) {
			p, err := placement.New(placement.Diag, placement.Options{PatternFraction: fraction})
			if err != nil {
				b.Fatal(err)
			}
			var giant int
			for i := 0; i < b.N; i++ {
				sol, err := p.Place(in, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				giant = eval.MustEvaluate(sol).GiantSize
			}
			b.ReportMetric(float64(giant), "giant")
		})
	}
}

func formatFraction(f float64) string {
	switch f {
	case 1.0:
		return "pattern=1.00"
	case 0.85:
		return "pattern=0.85"
	default:
		return "pattern=0.60"
	}
}

// BenchmarkAblationFitnessWeights varies the connectivity/coverage split of
// the scalar fitness (§2 "connectivity is more important than coverage").
func BenchmarkAblationFitnessWeights(b *testing.B) {
	in := benchInstance(b)
	for _, w := range []wmn.Weights{
		{Connectivity: 1.0, Coverage: 0.0},
		{Connectivity: 0.7, Coverage: 0.3},
		{Connectivity: 0.5, Coverage: 0.5},
	} {
		w := w
		b.Run(weightName(w), func(b *testing.B) {
			eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{Weights: w})
			if err != nil {
				b.Fatal(err)
			}
			init, err := ga.NewPlacerInitializer(placement.HotSpot, placement.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var m wmn.Metrics
			for i := 0; i < b.N; i++ {
				res, err := ga.Run(eval, init, ga.Config{Generations: 60}, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				m = res.BestMetrics
			}
			b.ReportMetric(float64(m.GiantSize), "giant")
			b.ReportMetric(float64(m.Covered), "covered")
		})
	}
}

func weightName(w wmn.Weights) string {
	switch w.Connectivity {
	case 1.0:
		return "conn=1.0"
	case 0.7:
		return "conn=0.7"
	default:
		return "conn=0.5"
	}
}

// BenchmarkAblationGAOperators compares the GA operator choices: the default tournament/uniform/gaussian against roulette selection,
// one-point and region crossover, and reset mutation. Reset mutation is the
// configuration that washes out the initializer differences.
func BenchmarkAblationGAOperators(b *testing.B) {
	in := benchInstance(b)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		cfg  ga.Config
	}{
		{name: "default", cfg: ga.Config{Generations: 60}},
		{name: "roulette", cfg: ga.Config{Generations: 60, Selection: ga.Roulette}},
		{name: "one-point", cfg: ga.Config{Generations: 60, Crossover: ga.OnePointCrossover}},
		{name: "region", cfg: ga.Config{Generations: 60, Crossover: ga.RegionCrossover}},
		{name: "reset-mutation", cfg: ga.Config{Generations: 60, Mutation: ga.ResetMutation}},
	}
	// The spread between a diverse initializer (HotSpot) and a degenerate
	// one (Corners) is the quantity the operator choice must preserve.
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var spread int
			for i := 0; i < b.N; i++ {
				giants := make(map[placement.Method]int, 2)
				for _, m := range []placement.Method{placement.HotSpot, placement.Corners} {
					init, err := ga.NewPlacerInitializer(m, placement.Options{})
					if err != nil {
						b.Fatal(err)
					}
					res, err := ga.Run(eval, init, v.cfg, rng.Derive(uint64(i), uint64(m)))
					if err != nil {
						b.Fatal(err)
					}
					giants[m] = res.BestMetrics.GiantSize
				}
				spread = giants[placement.HotSpot] - giants[placement.Corners]
			}
			b.ReportMetric(float64(spread), "hotspot-minus-corners")
		})
	}
}

// BenchmarkAblationSwapVirtualSlot compares the faithful Algorithm 3 swap
// (position exchange only) against the virtual-slot generalization used by
// the Figure 4 search.
func BenchmarkAblationSwapVirtualSlot(b *testing.B) {
	in := benchInstance(b)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := placement.New(placement.Random, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	initial, err := p.Place(in, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		prob float64
	}{
		{name: "faithful", prob: 0},
		{name: "virtual-slot", prob: 0.5},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var giant int
			for i := 0; i < b.N; i++ {
				res, err := localsearch.Search(eval, initial, localsearch.Config{
					Movement:          &localsearch.SwapMovement{VirtualSlotProb: v.prob},
					MaxPhases:         30,
					NeighborsPerPhase: 16,
				}, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				giant = res.BestMetrics.GiantSize
			}
			b.ReportMetric(float64(giant), "giant")
		})
	}
}

// BenchmarkAblationSpatialIndex measures the evaluation cost with and
// without the spatial index across fleet sizes; the crossover justifies the
// smallN constant in the evaluator.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		cfg := wmn.DefaultGenConfig()
		cfg.NumRouters = n
		cfg.NumClients = 3 * n
		in, err := wmn.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p, err := placement.New(placement.Random, placement.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sol, err := p.Place(in, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, brute := range []bool{false, true} {
			name := "indexed"
			if brute {
				name = "bruteforce"
			}
			b.Run(benchSizeName(n, name), func(b *testing.B) {
				eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{BruteForce: brute})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eval.MustEvaluate(sol)
				}
			})
		}
	}
}

func benchSizeName(n int, kind string) string {
	switch n {
	case 64:
		return "n=64/" + kind
	case 256:
		return "n=256/" + kind
	default:
		return "n=1024/" + kind
	}
}

// --- Micro-benchmarks on the hot paths ---------------------------------------

func BenchmarkEvaluate(b *testing.B) {
	in := benchInstance(b)
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := meshplace.Place(meshplace.HotSpot, in, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.MustEvaluate(sol)
	}
}

func BenchmarkPlacement(b *testing.B) {
	in := benchInstance(b)
	for _, m := range placement.Methods() {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			p, err := placement.New(m, placement.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Place(in, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSwapPropose walks a chain of swap proposals on the paper-scale
// instance, each step proposing from the previous step's neighbor as the
// search drivers do. `make benchdiff` gates its ns/op against
// BenchmarkIncrementalVsFull/paper/incremental, the evaluation of the
// same-sized move on the same instance.
func BenchmarkSwapPropose(b *testing.B) {
	in := benchInstance(b)
	p, err := placement.New(placement.Random, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := p.Place(in, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	dst := wmn.NewSolution(in.NumRouters())
	mv := localsearch.NewSwapMovement()
	r := rng.New(2)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = mv.ProposeDelta(in, sol, dst, r, buf)
		if ok {
			copy(sol.Positions, dst.Positions)
		}
	}
}
