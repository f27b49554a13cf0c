package ga

import (
	"errors"
	"testing"
	"testing/quick"

	"meshplace/internal/geom"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func testSetup(t *testing.T) (*wmn.Instance, *wmn.Evaluator) {
	t.Helper()
	cfg := wmn.DefaultGenConfig()
	cfg.NumRouters = 24 // keep GA tests fast
	cfg.NumClients = 60
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return in, eval
}

func quickCfg() Config {
	return Config{PopSize: 16, Generations: 30, RecordEvery: 5}
}

func hotspotInit(t *testing.T) PlacerInitializer {
	t.Helper()
	init, err := NewPlacerInitializer(placement.HotSpot, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return init
}

func TestRunImprovesOverInitialPopulation(t *testing.T) {
	in, eval := testSetup(t)
	init := hotspotInit(t)
	// Best of the would-be initial population.
	pop, err := init.InitPopulation(in, 16, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	bestInit := 0.0
	for _, s := range pop {
		if f := eval.MustEvaluate(s).Fitness; f > bestInit {
			bestInit = f
		}
	}
	res, err := Run(eval, init, quickCfg(), rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMetrics.Fitness < bestInit {
		t.Errorf("GA best %g below best initial individual %g", res.BestMetrics.Fitness, bestInit)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Errorf("best solution invalid: %v", err)
	}
}

func TestRunHistoryShape(t *testing.T) {
	_, eval := testSetup(t)
	cfg := quickCfg()
	cfg.Generations = 23 // not a multiple of RecordEvery
	res, err := Run(eval, hotspotInit(t), cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	last := res.History[len(res.History)-1]
	if last.Generation != 23 {
		t.Errorf("last record at generation %d, want 23", last.Generation)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Generation <= res.History[i-1].Generation {
			t.Fatal("history generations not increasing")
		}
		if res.History[i].BestFitness < res.History[i-1].BestFitness {
			t.Fatal("best-so-far fitness decreased")
		}
	}
}

func TestRunElitismMonotone(t *testing.T) {
	// With elitism, the best fitness per recorded generation never drops.
	_, eval := testSetup(t)
	f := func(seed uint64) bool {
		res, err := Run(eval, hotspotInit(t), quickCfg(), rng.New(seed))
		if err != nil {
			return false
		}
		prev := 0.0
		for _, rec := range res.History {
			if rec.BestFitness < prev {
				return false
			}
			prev = rec.BestFitness
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	_, eval := testSetup(t)
	run := func() wmn.Metrics {
		res, err := Run(eval, hotspotInit(t), quickCfg(), rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return res.BestMetrics
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

func TestRunEvaluationBudget(t *testing.T) {
	_, eval := testSetup(t)
	cfg := quickCfg()
	res, err := Run(eval, hotspotInit(t), cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	want := cfg.PopSize + cfg.Generations*(cfg.PopSize-cfg.Elitism)
	if res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "tiny population", cfg: Config{PopSize: 1}},
		{name: "negative generations", cfg: Config{Generations: -1}},
		{name: "crossover rate above 1", cfg: Config{CrossoverRate: 1.5}},
		{name: "mutation rate above 1", cfg: Config{MutationRate: 2}},
		{name: "elitism full population", cfg: Config{PopSize: 8, Elitism: 8}},
		{name: "negative record interval", cfg: Config{RecordEvery: -2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (defaults) rejected: %v", err)
	}
}

func TestRunRejectsNilInitializer(t *testing.T) {
	_, eval := testSetup(t)
	if _, err := Run(eval, nil, quickCfg(), rng.New(1)); err == nil {
		t.Error("nil initializer accepted")
	}
}

func TestRunRejectsBadInitializerOutput(t *testing.T) {
	in, eval := testSetup(t)
	short := InitializerFunc(func(_ *wmn.Instance, popSize int, _ *rng.Rand) ([]wmn.Solution, error) {
		return make([]wmn.Solution, popSize-1), nil
	})
	if _, err := Run(eval, short, quickCfg(), rng.New(1)); err == nil {
		t.Error("short population accepted")
	}
	invalid := InitializerFunc(func(_ *wmn.Instance, popSize int, _ *rng.Rand) ([]wmn.Solution, error) {
		pop := make([]wmn.Solution, popSize)
		for i := range pop {
			pop[i] = wmn.NewSolution(in.NumRouters())
			pop[i].Positions[0] = geom.Pt(-5, -5) // out of area
		}
		return pop, nil
	})
	if _, err := Run(eval, invalid, quickCfg(), rng.New(1)); err == nil {
		t.Error("out-of-area population accepted")
	}
	failing := InitializerFunc(func(*wmn.Instance, int, *rng.Rand) ([]wmn.Solution, error) {
		return nil, errors.New("boom")
	})
	if _, err := Run(eval, failing, quickCfg(), rng.New(1)); err == nil {
		t.Error("initializer error swallowed")
	}
}

func TestCrossoverKindsProduceValidChildren(t *testing.T) {
	in, eval := testSetup(t)
	t.Run("uniform", func(t *testing.T) {
		res, err := Run(eval, hotspotInit(t), quickCfg(), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Best.Validate(in); err != nil {
			t.Errorf("best invalid: %v", err)
		}
	})
}

func TestMutationKindsStayInArea(t *testing.T) {
	in, eval := testSetup(t)
	t.Run("gaussian", func(t *testing.T) {
		cfg := quickCfg()
		cfg.MutationRate = 0.3 // stress mutation
		res, err := Run(eval, hotspotInit(t), cfg, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Best.Validate(in); err != nil {
			t.Errorf("best invalid: %v", err)
		}
	})
}

func TestCrossoverGenesComeFromParents(t *testing.T) {
	in, _ := testSetup(t)
	r := rng.New(14)
	a := wmn.NewSolution(in.NumRouters())
	b := wmn.NewSolution(in.NumRouters())
	for i := range a.Positions {
		a.Positions[i] = geom.Pt(1, float64(i))
		b.Positions[i] = geom.Pt(2, float64(i))
	}
	child := wmn.NewSolution(in.NumRouters())
	crossover(a, b, child, r)
	for i, p := range child.Positions {
		if p != a.Positions[i] && p != b.Positions[i] {
			t.Errorf("child gene %d = %v from neither parent", i, p)
		}
	}
}

func TestTournamentSelectionPicksBetterOnAverage(t *testing.T) {
	pop := []individual{
		{metrics: wmn.Metrics{Fitness: 0.1}},
		{metrics: wmn.Metrics{Fitness: 0.9}},
	}
	r := rng.New(15)
	wins := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if tournamentSelect(pop, 3, r).metrics.Fitness > 0.5 {
			wins++
		}
	}
	// P(best wins k=3 tournament over 2 individuals) = 1 - (1/2)^3 = 0.875.
	if frac := float64(wins) / trials; frac < 0.83 || frac > 0.92 {
		t.Errorf("tournament win rate %.3f, want ≈0.875", frac)
	}
}

func TestSolutionsInitializer(t *testing.T) {
	in, eval := testSetup(t)
	base := wmn.NewSolution(in.NumRouters())
	for i := range base.Positions {
		base.Positions[i] = geom.Pt(10+float64(i), 10)
	}
	init := SolutionsInitializer{Solutions: []wmn.Solution{base}}
	pop, err := init.InitPopulation(in, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pop) != 5 {
		t.Fatalf("population size %d", len(pop))
	}
	// Cycling clones: mutating one must not affect others.
	pop[0].Positions[0] = geom.Pt(0, 0)
	if pop[1].Positions[0] == pop[0].Positions[0] {
		t.Error("initializer returned shared storage")
	}
	if _, err := (SolutionsInitializer{}).InitPopulation(in, 3, rng.New(1)); err == nil {
		t.Error("empty solutions initializer accepted")
	}
	if _, err := Run(eval, init, quickCfg(), rng.New(18)); err != nil {
		t.Errorf("GA from solutions initializer failed: %v", err)
	}
}
