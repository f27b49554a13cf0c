package wmn

import (
	"fmt"
	"math"
	"testing"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
)

// BenchmarkIncrementalVsFull measures the cost of evaluating one
// one-router-moved neighbor — the operation the search hot loops perform
// almost exclusively — on the full evaluator versus the incremental engine,
// at paper scale (64 routers / 192 clients) and at 10× (640 / 1920, area
// scaled to preserve density). The incremental/full ratio is the speedup
// `make benchdiff` pins at ≥ 2× for the 10× scale. The nudge arm moves the
// router by the perturb movement's clamped σ=2 Gaussian instead of a
// teleport, so it mostly keeps the router's neighbor set and measures
// Apply's skip path and the log-replay Revert; `make benchdiff` pins it at
// or under the teleporting incremental arm.
func BenchmarkIncrementalVsFull(b *testing.B) {
	for _, scale := range []struct {
		name string
		mult int
	}{
		{name: "paper", mult: 1},
		{name: "10x", mult: 10},
	} {
		cfg := DefaultGenConfig()
		side := cfg.Width * math.Sqrt(float64(scale.mult))
		cfg.Name = fmt.Sprintf("bench-%s", scale.name)
		cfg.Width, cfg.Height = side, side
		cfg.NumRouters *= scale.mult
		cfg.NumClients *= scale.mult
		in, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eval, err := NewEvaluator(in, EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		base := NewSolution(in.NumRouters())
		for i := range base.Positions {
			base.Positions[i] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
		}

		b.Run(scale.name+"/full", func(b *testing.B) {
			scratch := base.Clone()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := r.IntN(len(scratch.Positions))
				old := scratch.Positions[j]
				scratch.Positions[j] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
				_ = eval.MustEvaluate(scratch)
				scratch.Positions[j] = old // stay a neighbor of base
			}
		})
		b.Run(scale.name+"/incremental", func(b *testing.B) {
			ie, err := NewIncrementalEvaluator(eval, base)
			if err != nil {
				b.Fatal(err)
			}
			scratch := base.Clone()
			moved := make([]int, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := r.IntN(len(scratch.Positions))
				old := scratch.Positions[j]
				scratch.Positions[j] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
				moved[0] = j
				_ = ie.Apply(moved, scratch)
				ie.Revert()
				scratch.Positions[j] = old
			}
		})
		b.Run(scale.name+"/nudge", func(b *testing.B) {
			ie, err := NewIncrementalEvaluator(eval, base)
			if err != nil {
				b.Fatal(err)
			}
			scratch := base.Clone()
			area := in.Area()
			moved := make([]int, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := r.IntN(len(scratch.Positions))
				old := scratch.Positions[j]
				scratch.Positions[j] = area.Clamp(geom.Pt(old.X+r.NormFloat64()*2, old.Y+r.NormFloat64()*2))
				moved[0] = j
				_ = ie.Apply(moved, scratch)
				ie.Revert()
				scratch.Positions[j] = old
			}
		})
	}
}
