package meshplace

import (
	"meshplace/internal/report"
)

// Reproducible-experiment types (see the report documentation for full
// semantics). The paper runner behind `wmnplace paper` and `make paper`
// sweeps a solver grid over the scenario corpus for seeded repetitions and
// renders three artifacts — results.csv, results.md and manifest.json —
// that are byte-identical in (corpus version, seed, reps, specs, scenario
// selection) at any worker count on any machine.
type (
	// PaperConfig parameterizes one paper run: seed, repetition count,
	// solver grid and scenario selection (empty selections take the default
	// suite specs and the full corpus).
	PaperConfig = report.Config
	// PaperReport is the outcome of RunPaper: the resolved config plus one
	// suite report per repetition.
	PaperReport = report.Report
	// PaperManifest is the machine-readable recipe of a run — everything
	// CheckPaper needs to reproduce the artifacts, plus the fingerprint
	// they must match.
	PaperManifest = report.Manifest
)

// RunPaper executes the experiment grid: Reps repetitions of a full
// (scenario × solver) suite sweep, each repetition seeded from the run
// seed and the repetition index only.
func RunPaper(cfg PaperConfig) (*PaperReport, error) { return report.Execute(cfg) }

// WritePaper renders the report's three artifacts into dir, creating it if
// needed.
func WritePaper(dir string, r *PaperReport) error {
	return report.WriteFiles(dir, r.Files())
}

// CheckPaper re-runs the experiment a directory's manifest describes and
// fails unless every artifact reproduces byte for byte and every shape
// claim of the source paper the grid holds a study for is met — the gate
// behind `make paper-check`.
func CheckPaper(dir string) error { return report.Check(dir) }
