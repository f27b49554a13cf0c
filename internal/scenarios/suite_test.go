package scenarios_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// quickSpecs returns one cheap spec per registered solver kind — the full
// registry sweep at test-sized budgets.
func quickSpecs(t testing.TB) []server.Spec {
	t.Helper()
	texts := []string{
		"adhoc:method=HotSpot",
		"search:phases=2,neighbors=2",
		"hillclimb:steps=16,noimprove=8",
		"anneal:steps=16",
		"tabu:phases=2,neighbors=2",
		"ga:generations=2,pop=4",
		"portfolio:members=search:phases=2;neighbors=2|anneal:steps=16|adhoc,budget=64,slices=2",
	}
	if want := len(server.Kinds()); len(texts) != want {
		t.Fatalf("quickSpecs covers %d kinds, registry has %d — extend the list", len(texts), want)
	}
	specs := make([]server.Spec, len(texts))
	for i, text := range texts {
		spec, err := server.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		specs[i] = spec
	}
	return specs
}

func runQuickSuite(t testing.TB, cfg scenarios.SuiteConfig) *scenarios.Report {
	t.Helper()
	report, err := server.RunSuite(quickSpecs(t), scenarios.Corpus(cfg.Seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestSuiteWorkerInvariance runs the full corpus across every registered
// solver kind at one and eight workers and demands byte-identical
// deterministic columns — the suite-level mirror of the corpus golden
// test, pinning that fan-out scheduling never leaks into a report.
func TestSuiteWorkerInvariance(t *testing.T) {
	serial := runQuickSuite(t, scenarios.SuiteConfig{Seed: 7, Workers: 1})
	parallel := runQuickSuite(t, scenarios.SuiteConfig{Seed: 7, Workers: 8})

	if got, want := parallel.Fingerprint(), serial.Fingerprint(); got != want {
		t.Fatalf("8-worker fingerprint %s differs from 1-worker %s", got, want)
	}
	if len(serial.Results) != len(scenarios.Corpus(7))*len(server.Kinds()) {
		t.Fatalf("report has %d cells", len(serial.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], parallel.Results[i]
		a.Runtime, b.Runtime = 0, 0
		if a != b {
			t.Fatalf("cell %d differs across worker counts:\n1: %+v\n8: %+v", i, serial.Results[i], parallel.Results[i])
		}
	}
}

// TestSuiteInjectedClock runs the suite under a frozen injected clock and
// demands (a) every Runtime stamp is exactly zero — proof the stamps flow
// through SuiteConfig.Clock and nothing else in the cell path reads wall
// time — and (b) the fingerprint matches a default-clock run bit for bit,
// so the deterministic columns are independent of the clock entirely.
// Together with wmnlint's wallclock rule (which bans stray time reads in
// this package) this pins the Fingerprint path as wall-clock-free.
func TestSuiteInjectedClock(t *testing.T) {
	epoch := time.Unix(1234567890, 0)
	frozen := runQuickSuite(t, scenarios.SuiteConfig{Seed: 7, Workers: 2, Clock: func() time.Time { return epoch }})
	for i, cell := range frozen.Results {
		if cell.Runtime != 0 {
			t.Fatalf("cell %d Runtime = %v under a frozen clock; a wall-clock read slipped past the injected clock", i, cell.Runtime)
		}
	}
	wall := runQuickSuite(t, scenarios.SuiteConfig{Seed: 7, Workers: 2})
	if got, want := frozen.Fingerprint(), wall.Fingerprint(); got != want {
		t.Fatalf("frozen-clock fingerprint %s differs from wall-clock %s", got, want)
	}
}

func TestSuiteReportCells(t *testing.T) {
	scs := scenarios.Filter(scenarios.Corpus(3), "half")
	report, err := server.RunSuite(quickSpecs(t), scs, scenarios.SuiteConfig{Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	instances, err := scenarios.GenerateScenarios(scs, 4)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	for i, in := range instances {
		hashes[scs[i].Name] = wmn.HashInstance(in)
	}
	for _, res := range report.Results {
		if res.InstanceHash != hashes[res.Scenario] {
			t.Errorf("%s × %s: instance hash %s, want %s", res.Scenario, res.Solver, res.InstanceHash, hashes[res.Scenario])
		}
		if res.Connectivity <= 0 || res.Connectivity > 1 {
			t.Errorf("%s × %s: connectivity %g out of (0, 1]", res.Scenario, res.Solver, res.Connectivity)
		}
		if res.Coverage < 0 || res.Coverage > 1 {
			t.Errorf("%s × %s: coverage %g out of [0, 1]", res.Scenario, res.Solver, res.Coverage)
		}
		if res.Metrics.GiantSize < 1 {
			t.Errorf("%s × %s: empty giant component", res.Scenario, res.Solver)
		}
	}
	var b strings.Builder
	report.Render(&b)
	out := b.String()
	if !strings.Contains(out, report.Fingerprint()) {
		t.Error("Render output does not include the fingerprint")
	}
	if !strings.Contains(out, "v1-half-trace") {
		t.Error("Render output does not list the trace scenario")
	}
}

// failingSolver errors on one scenario to exercise the suite error path.
type failingSolver struct{ fail string }

func (f failingSolver) Solve(_ context.Context, eval *wmn.Evaluator, seed uint64) (wmn.Solution, wmn.Metrics, error) {
	if eval.Instance().Name == f.fail {
		return wmn.Solution{}, wmn.Metrics{}, errors.New("boom")
	}
	sol := wmn.NewSolution(eval.Instance().NumRouters())
	metrics, err := eval.Evaluate(sol)
	return sol, metrics, err
}

func TestSuiteSurfacesSolverErrors(t *testing.T) {
	scs := scenarios.Filter(scenarios.Corpus(1), "half")
	solvers := []scenarios.NamedSolver{{Name: "fail", Solver: failingSolver{fail: "v1-half-ring"}}}
	_, err := scenarios.RunSuite(scs, solvers, scenarios.SuiteConfig{Seed: 1, Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "v1-half-ring") {
		t.Fatalf("err = %v, want the failing scenario named", err)
	}
	if _, err := scenarios.RunSuite(nil, solvers, scenarios.SuiteConfig{}); err == nil {
		t.Error("empty scenario list accepted")
	}
	if _, err := scenarios.RunSuite(scs, nil, scenarios.SuiteConfig{}); err == nil {
		t.Error("empty solver list accepted")
	}
}
