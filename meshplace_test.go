package meshplace_test

import (
	"testing"

	"meshplace"
)

// These tests exercise the public facade end to end, the way a downstream
// user would: generate → place → search/GA → evaluate.

func facadeInstance(t *testing.T) *meshplace.Instance {
	t.Helper()
	cfg := meshplace.DefaultGenConfig()
	cfg.NumRouters = 32
	cfg.NumClients = 96
	inst, err := meshplace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestFacadePipeline(t *testing.T) {
	inst := facadeInstance(t)
	eval, err := meshplace.NewEvaluator(inst, meshplace.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range meshplace.PlacementMethods() {
		sol, err := meshplace.Place(m, inst, 1)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		metrics, err := eval.Evaluate(sol)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if metrics.GiantSize < 1 || metrics.GiantSize > inst.NumRouters() {
			t.Errorf("%v: giant %d out of range", m, metrics.GiantSize)
		}
	}
}

func TestFacadeSearchersImprove(t *testing.T) {
	inst := facadeInstance(t)
	eval, err := meshplace.NewEvaluator(inst, meshplace.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := meshplace.Place(meshplace.Random, inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	start, err := eval.Evaluate(initial)
	if err != nil {
		t.Fatal(err)
	}

	ns, err := meshplace.NeighborhoodSearch(eval, initial, meshplace.SearchConfig{
		Movement: meshplace.NewSwapMovement(), MaxPhases: 15, NeighborsPerPhase: 16,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ns.BestMetrics.Fitness <= start.Fitness {
		t.Error("neighborhood search did not improve")
	}

	hc, err := meshplace.HillClimb(eval, initial, meshplace.HillClimbConfig{
		Movement: meshplace.NewSwapMovement(), MaxSteps: 300,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hc.BestMetrics.Fitness <= start.Fitness {
		t.Error("hill climb did not improve")
	}

	an, err := meshplace.Anneal(eval, initial, meshplace.AnnealConfig{
		Movement: meshplace.NewSwapMovement(), Steps: 300,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if an.BestMetrics.Fitness < start.Fitness {
		t.Error("annealing lost the initial solution")
	}

	tb, err := meshplace.Tabu(eval, initial, meshplace.TabuConfig{
		Movement: meshplace.NewSwapMovement(), MaxPhases: 15, NeighborsPerPhase: 16,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tb.BestMetrics.Fitness <= start.Fitness {
		t.Error("tabu search did not improve")
	}
}

func TestFacadeGA(t *testing.T) {
	inst := facadeInstance(t)
	eval, err := meshplace.NewEvaluator(inst, meshplace.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	init, err := meshplace.NewPlacerInitializer(meshplace.HotSpot, meshplace.PlacementOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := meshplace.GAConfig{PopSize: 16, Generations: 25}
	res, err := meshplace.RunGA(eval, init, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || res.BestMetrics.GiantSize < 1 {
		t.Errorf("GA result malformed: %+v", res.BestMetrics)
	}
}

func TestFacadeClientSpecs(t *testing.T) {
	meshplace.RegisterClientTrace("facade/test", []meshplace.Point{
		meshplace.Pt(10, 10), meshplace.Pt(100, 100), meshplace.Pt(64, 32),
	})
	specs := []meshplace.DistSpec{
		meshplace.UniformClients(),
		meshplace.NormalClients(64, 64, 12.8),
		meshplace.ExponentialClients(32),
		meshplace.WeibullClients(1.8, 36),
		meshplace.HotspotClients(
			meshplace.ClientHotspot{X: 32, Y: 32, Sigma: 8, Weight: 2},
			meshplace.ClientHotspot{X: 96, Y: 96, Sigma: 12, Weight: 1},
		),
		meshplace.RingClients(64, 64, 20, 40),
		meshplace.TraceClients("facade/test"),
	}
	for _, spec := range specs {
		parsed, err := meshplace.ParseClients(spec.String())
		if err != nil {
			t.Errorf("ParseClients(%q): %v", spec.String(), err)
			continue
		}
		if parsed != spec {
			t.Errorf("round trip changed %v to %v", spec, parsed)
		}
		cfg := meshplace.DefaultGenConfig()
		cfg.NumRouters = 4
		cfg.NumClients = 16
		cfg.ClientDist = spec
		if _, err := meshplace.Generate(cfg); err != nil {
			t.Errorf("Generate with %v: %v", spec, err)
		}
	}
}

func TestFacadeWeightsAndModels(t *testing.T) {
	inst := facadeInstance(t)
	sol, err := meshplace.Place(meshplace.Near, inst, 9)
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := meshplace.NewEvaluator(inst, meshplace.EvalOptions{Link: meshplace.LinkCoverageOverlap})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := meshplace.NewEvaluator(inst, meshplace.EvalOptions{Link: meshplace.LinkUnitDisk})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := overlap.Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := unit.Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	if mu.Links > mo.Links {
		t.Errorf("unit-disk produced more links (%d) than coverage-overlap (%d)", mu.Links, mo.Links)
	}
	if w := meshplace.DefaultWeights(); w.Connectivity != 0.7 || w.Coverage != 0.3 {
		t.Errorf("default weights %+v", w)
	}
}

func TestFacadeSolverRegistry(t *testing.T) {
	// Seven built-in kinds plus the remote proxy backend internal/cluster
	// registers at init (the facade links the cluster subsystem).
	kinds := meshplace.SolverKinds()
	if len(kinds) != 8 {
		t.Fatalf("registry lists %d kinds, want 8: %v", len(kinds), kinds)
	}
	hasRemote := false
	for _, k := range kinds {
		hasRemote = hasRemote || k == "remote"
	}
	if !hasRemote {
		t.Errorf("remote proxy backend not registered through the facade: %v", kinds)
	}
	if len(meshplace.SolverCatalog()) != len(kinds) {
		t.Error("catalog size != kind count")
	}

	inst := facadeInstance(t)
	spec, err := meshplace.ParseSolverSpec("search:movement=swap,phases=4,neighbors=4")
	if err != nil {
		t.Fatal(err)
	}
	if again, err := meshplace.ParseSolverSpec(spec.String()); err != nil || again.String() != spec.String() {
		t.Errorf("spec %q does not round-trip (err %v)", spec, err)
	}
	sol, metrics, err := meshplace.Solve(spec, inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(inst); err != nil {
		t.Fatal(err)
	}
	sol2, metrics2, err := meshplace.Solve(spec, inst, 42)
	if err != nil {
		t.Fatal(err)
	}
	if metrics != metrics2 || len(sol.Positions) != len(sol2.Positions) {
		t.Error("Solve not deterministic in (instance, spec, seed)")
	}
	for i := range sol.Positions {
		if sol.Positions[i] != sol2.Positions[i] {
			t.Fatalf("router %d moved between identical solves", i)
		}
	}
}

func TestFacadeScenarioSuite(t *testing.T) {
	catalog := meshplace.ScenarioCatalog()
	corpus := meshplace.ScenarioCorpus(1)
	if len(catalog) == 0 || len(catalog) != len(corpus) {
		t.Fatalf("catalog has %d entries, corpus %d", len(catalog), len(corpus))
	}
	instances, err := meshplace.GenerateScenarioCorpus(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != len(corpus) {
		t.Fatalf("generated %d instances for %d scenarios", len(instances), len(corpus))
	}

	spec, err := meshplace.ParseSolverSpec("adhoc:method=HotSpot")
	if err != nil {
		t.Fatal(err)
	}
	report, err := meshplace.RunScenarioSuite(
		[]meshplace.SolverSpec{spec}, corpus[:3],
		meshplace.SuiteConfig{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 3 {
		t.Fatalf("report has %d cells, want 3", len(report.Results))
	}
	if report.Version != meshplace.ScenarioCorpusVersion {
		t.Errorf("report version %q", report.Version)
	}
	if report.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}
}
