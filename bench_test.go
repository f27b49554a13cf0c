package meshplace_test

// Timing benchmarks of the library facade:
//
//   - BenchmarkAblationSpatialIndex times evaluation with and without the
//     spatial index across fleet sizes.
//   - BenchmarkEvaluate, BenchmarkPlacement and BenchmarkSwapPropose time
//     the hot paths; BenchmarkSwapPropose feeds a benchdiff ratio gate.
//
// Every benchmark here measures time. Quality results are not benchmarks:
// the paper's Tables 1–3 and Figure 4 are the drift-gated runs/xhafa09
// report grid (`make paper-check`).

import (
	"testing"

	"meshplace"
	"meshplace/internal/localsearch"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func benchInstance(b *testing.B) *wmn.Instance {
	b.Helper()
	in, err := wmn.Generate(wmn.DefaultGenConfig())
	if err != nil {
		b.Fatal(err)
	}
	return in
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
