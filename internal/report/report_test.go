package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

// testConfig is a small but non-trivial grid: two scenarios, two solvers,
// two repetitions.
func testConfig(t *testing.T, workers int) Config {
	t.Helper()
	var specs []server.Spec
	for _, s := range []string{"adhoc", "search:phases=10,neighbors=2"} {
		spec, err := server.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return Config{
		Seed:      42,
		Reps:      2,
		Specs:     specs,
		Scenarios: scenarios.Corpus(42)[:2],
		Workers:   workers,
	}
}

// studyConfig is a reduced paper study on one base-scale paper scenario:
// two ad hoc methods stand-alone and as the initializers of a short GA.
func studyConfig(t *testing.T, layout string, workers int) Config {
	t.Helper()
	cfg := Config{Seed: 42, Reps: 1, Workers: workers}
	for _, s := range []string{"adhoc:method=HotSpot", "adhoc:method=Near",
		"ga:init=HotSpot,generations=15,pop=16,islands=1", "ga:init=Near,generations=15,pop=16,islands=1"} {
		spec, err := server.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Specs = append(cfg.Specs, spec)
	}
	for _, sc := range scenarios.Corpus(42) {
		if sc.Name == "v1-base-"+layout {
			cfg.Scenarios = append(cfg.Scenarios, sc)
		}
	}
	if len(cfg.Scenarios) != 1 {
		t.Fatalf("no base-scale %s scenario", layout)
	}
	return cfg
}

// assertSameReport fails unless two reports hold equal cells and render
// byte-identical artifacts.
func assertSameReport(t *testing.T, what string, a, b *Report) {
	t.Helper()
	cfg := a.Config
	for _, r := range []*Report{a, b} {
		if len(r.Runs) != cfg.Reps || len(r.Runs[0].Results) != len(cfg.Specs)*len(cfg.Scenarios) {
			t.Fatalf("%s: report holds %d runs, want %d of %d cells", what, len(r.Runs), cfg.Reps, len(cfg.Specs)*len(cfg.Scenarios))
		}
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Errorf("%s: results differ", what)
	}
	fa, fb := a.Files(), b.Files()
	for _, name := range fileOrder {
		if !bytes.Equal(fa[name], fb[name]) {
			t.Errorf("%s: %s not byte-identical", what, name)
		}
	}
}

// TestExecuteRepeatable pins run-to-run identity of a study: the same
// config run twice yields equal cells and identical artifacts.
func TestExecuteRepeatable(t *testing.T) {
	a, err := Execute(studyConfig(t, "weibull", 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(studyConfig(t, "weibull", 2))
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "two identical study runs", a, b)
}

// TestExecuteIdenticalAcrossWorkerCounts pins that a study's cells and
// artifacts do not depend on the fan-out: one worker and eight agree.
func TestExecuteIdenticalAcrossWorkerCounts(t *testing.T) {
	one, err := Execute(studyConfig(t, "normal", 1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Execute(studyConfig(t, "normal", 8))
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "1 vs 8 workers", one, eight)
}

// TestExecuteDefaultWorkersMatchSequential pins that the default fan-out
// (one worker per CPU) reproduces a strictly sequential run.
func TestExecuteDefaultWorkersMatchSequential(t *testing.T) {
	seq, err := Execute(studyConfig(t, "exponential", 1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Execute(studyConfig(t, "exponential", 0))
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "sequential vs default workers", seq, par)
}

// TestSweepMatchesPerScenarioRuns pins that sweeping several studies in
// one grid changes none of them: every cell equals the one a grid of its
// scenario alone produces.
func TestSweepMatchesPerScenarioRuns(t *testing.T) {
	layouts := []string{"normal", "exponential"}
	cfg := studyConfig(t, layouts[0], 4)
	cfg.Scenarios = append(cfg.Scenarios, studyConfig(t, layouts[1], 4).Scenarios...)
	sweep, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]scenarios.Result{}
	for _, res := range sweep.Runs[0].Results {
		got[res.Scenario+"|"+res.Solver] = res
	}
	for _, layout := range layouts {
		solo, err := Execute(studyConfig(t, layout, 4))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range solo.Runs[0].Results {
			if !reflect.DeepEqual(got[res.Scenario+"|"+res.Solver], res) {
				t.Errorf("%s × %s: swept cell differs from a stand-alone run", res.Scenario, res.Solver)
			}
		}
	}
}

// TestSearchGridIdenticalAcrossWorkerCounts pins the Figure 4 kind of grid
// — swap and random movement from a Random start — against the fan-out:
// one worker and eight yield equal cells and identical artifacts.
func TestSearchGridIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := func(workers int) Config {
		c := studyConfig(t, "weibull", workers)
		c.Specs = nil
		for _, movement := range []string{"swap", "random"} {
			spec, err := server.ParseSpec("search:movement=" + movement + ",init=Random,phases=5,neighbors=4")
			if err != nil {
				t.Fatal(err)
			}
			c.Specs = append(c.Specs, spec)
		}
		return c
	}
	one, err := Execute(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Execute(cfg(8))
	if err != nil {
		t.Fatal(err)
	}
	assertSameReport(t, "search grid at 1 vs 8 workers", one, eight)
}

// TestReportDeterministic pins the package contract: the same config
// yields byte-identical artifacts run to run and at any worker count, and
// changing the seed changes the fingerprint.
func TestReportDeterministic(t *testing.T) {
	first, err := Execute(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Execute(testConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	a, b := first.Files(), second.Files()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("artifact sets have %d and %d files, want 3", len(a), len(b))
	}
	for _, name := range fileOrder {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between a 1-worker and a 4-worker run", name)
		}
	}

	other := testConfig(t, 1)
	other.Seed = 43
	reseeded, err := Execute(other)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a["results.csv"], reseeded.Files()["results.csv"]) {
		t.Error("different seeds produced identical CSV bytes")
	}
}

// TestReportArtifactShape spot-checks the rendered artifacts: CSV row
// count, markdown tables, manifest recipe and cross-file fingerprint
// agreement.
func TestReportArtifactShape(t *testing.T) {
	cfg := testConfig(t, 2)
	rep, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := rep.Files()

	lines := strings.Split(strings.TrimSuffix(string(files["results.csv"]), "\n"), "\n")
	wantRows := cfg.Reps*len(cfg.Specs)*len(cfg.Scenarios) + 1
	if len(lines) != wantRows {
		t.Errorf("CSV has %d lines, want %d", len(lines), wantRows)
	}

	md := string(files["results.md"])
	for _, want := range []string{"## Solvers", "## Scenarios", "## Mean fitness", "## Solver summary",
		"`" + cfg.Specs[0].String() + "`", cfg.Scenarios[0].Name} {
		if !strings.Contains(md, want) {
			t.Errorf("results.md lacks %q", want)
		}
	}

	fp := fingerprint(files["results.csv"])
	if !strings.Contains(md, fp) {
		t.Error("results.md does not embed the CSV fingerprint")
	}
	if !strings.Contains(string(files["manifest.json"]), fp) {
		t.Error("manifest.json does not embed the CSV fingerprint")
	}
	if !strings.Contains(string(files["manifest.json"]), `"`+cfg.Specs[1].String()+`"`) {
		t.Error("manifest.json does not record the canonical solver specs")
	}
}

// TestCheckRoundTripAndDrift pins the drift gate: a freshly written run
// directory passes Check, and any byte flipped in any artifact fails it
// naming the file.
func TestCheckRoundTripAndDrift(t *testing.T) {
	rep, err := Execute(testConfig(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := WriteFiles(dir, rep.Files()); err != nil {
		t.Fatal(err)
	}
	if err := Check(dir); err != nil {
		t.Fatalf("fresh run directory fails Check: %v", err)
	}

	mdPath := filepath.Join(dir, "results.md")
	orig, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mdPath, append([]byte("tampered\n"), orig...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = Check(dir)
	if err == nil || !strings.Contains(err.Error(), "results.md") {
		t.Errorf("Check on a tampered directory = %v, want drift error naming results.md", err)
	}
}

// TestExecuteValidation covers the config guards.
func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(Config{Seed: 1, Reps: 0}); err == nil {
		t.Error("Execute accepted zero reps")
	}
}
