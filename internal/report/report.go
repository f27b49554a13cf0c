// Package report is the reproducible-experiment runner behind
// `wmnplace paper` and `make paper`: it sweeps a solver grid over the
// scenario corpus for a number of seeded repetitions and renders the
// outcome as three artifacts — results.csv (every cell, full precision),
// results.md (the aggregated tables README embeds) and manifest.json (the
// machine-readable recipe plus fingerprint).
//
// Every artifact is deterministic in (corpus version, seed, reps, specs,
// scenario selection): repetition seeds derive from the run seed, the
// suite runs under a frozen clock so no wall-clock value reaches any
// output, and iteration order is fixed — so two runs with the same
// manifest are byte-identical at any worker count, which is exactly what
// Check re-verifies against a directory of previously written files.
//
// A grid that holds the source paper's studies (see paper.go; the named
// spec set Xhafa09Specs) also renders the paper's values beside the
// measured means, and Check fails on any violated shape claim of the
// paper (shape.go), so one gate pins both the bytes and the claims.
package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"meshplace/internal/rng"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

// Config parameterizes one report run.
type Config struct {
	// Seed drives everything: corpus generation and, via one derived
	// stream per repetition, every solver run.
	Seed uint64
	// Reps is the number of repetitions; each sweeps the full grid with
	// its own derived seed. Must be at least 1.
	Reps int
	// Specs is the solver grid, in column order; empty selects
	// server.DefaultSuiteSpecs.
	Specs []server.Spec
	// Scenarios is the row selection, in row order; empty selects the full
	// corpus for Seed.
	Scenarios []scenarios.Scenario
	// Workers bounds the suite fan-out (0 = one per CPU). Not part of the
	// manifest: results are byte-identical at any worker count.
	Workers int
}

// Report is the outcome of Execute: the resolved config plus one suite
// report per repetition, in repetition order.
type Report struct {
	Config Config
	// Corpus is the scenario corpus version the run swept.
	Corpus string
	// Runs holds one suite report per repetition.
	Runs []*scenarios.Report
}

// Manifest is the machine-readable recipe of a run — everything Check
// needs to reproduce the artifacts, plus the fingerprint they must match.
type Manifest struct {
	Corpus      string   `json:"corpus"`
	Seed        uint64   `json:"seed"`
	Reps        int      `json:"reps"`
	Specs       []string `json:"specs"`
	Scenarios   []string `json:"scenarios"`
	Fingerprint string   `json:"fingerprint"`
}

// Execute runs the experiment grid: Reps repetitions of a full
// (scenario × solver) suite sweep, each repetition seeded from the run
// seed and the repetition index only.
func Execute(cfg Config) (*Report, error) {
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("report: reps must be at least 1, got %d", cfg.Reps)
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = server.DefaultSuiteSpecs()
	}
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = scenarios.Corpus(cfg.Seed)
	}
	rep := &Report{Config: cfg, Corpus: scenarios.Version}
	for r := 0; r < cfg.Reps; r++ {
		suite, err := server.RunSuite(cfg.Specs, cfg.Scenarios, scenarios.SuiteConfig{
			Seed:    rng.DeriveString(cfg.Seed, "report/rep/"+strconv.Itoa(r)).Uint64(),
			Workers: cfg.Workers,
			// The frozen clock keeps every Runtime stamp at zero: no output
			// byte of this package may depend on the wall clock.
			Clock: func() time.Time { return time.Time{} },
		})
		if err != nil {
			return nil, fmt.Errorf("report: rep %d: %w", r, err)
		}
		rep.Runs = append(rep.Runs, suite)
	}
	return rep, nil
}

// Files renders the three artifacts. Keys are file names relative to the
// run directory.
func (r *Report) Files() map[string][]byte {
	csv := r.csv()
	fp := fingerprint(csv)
	return map[string][]byte{
		"results.csv":   csv,
		"results.md":    r.markdown(fp),
		"manifest.json": r.manifest(fp),
	}
}

// fileOrder fixes the artifact write and check order.
var fileOrder = []string{"results.csv", "results.md", "manifest.json"}

// WriteFiles writes the artifacts into dir, creating it if needed.
func WriteFiles(dir string, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	for _, name := range fileOrder {
		if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
			return fmt.Errorf("report: %w", err)
		}
	}
	return nil
}

// Check re-runs the experiment a directory's manifest describes and
// verifies every artifact matches byte for byte and every paper shape
// claim holds — the gate behind `make paper-check`: if code changes alter
// any documented number, the checked-in snapshot must be regenerated in
// the same commit, and no regeneration may break a claim of the paper.
func Check(dir string) error {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("report: %s: %w", filepath.Join(dir, "manifest.json"), err)
	}
	if m.Corpus != scenarios.Version {
		return fmt.Errorf("report: %s was generated against corpus %s; current is %s — regenerate it",
			dir, m.Corpus, scenarios.Version)
	}
	cfg := Config{Seed: m.Seed, Reps: m.Reps}
	for _, s := range m.Specs {
		spec, err := server.ParseSpec(s)
		if err != nil {
			return fmt.Errorf("report: manifest spec: %w", err)
		}
		cfg.Specs = append(cfg.Specs, spec)
	}
	byName := map[string]scenarios.Scenario{}
	for _, sc := range scenarios.Corpus(m.Seed) {
		byName[sc.Name] = sc
	}
	for _, name := range m.Scenarios {
		sc, ok := byName[name]
		if !ok {
			return fmt.Errorf("report: manifest scenario %q is not in corpus %s", name, scenarios.Version)
		}
		cfg.Scenarios = append(cfg.Scenarios, sc)
	}
	rep, err := Execute(cfg)
	if err != nil {
		return err
	}
	files := rep.Files()
	var drifted []string
	for _, name := range fileOrder {
		have, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if !bytes.Equal(have, files[name]) {
			drifted = append(drifted, name)
		}
	}
	if len(drifted) > 0 {
		return fmt.Errorf("report: %s drifted from a fresh run (regenerate the snapshot): %s",
			dir, strings.Join(drifted, ", "))
	}
	if v := rep.Violations(); len(v) > 0 {
		return fmt.Errorf("report: %s violates %d paper shape claim(s): %s", dir, len(v), strings.Join(v, "; "))
	}
	return nil
}

// fingerprint hashes artifact bytes with FNV-1a — the one string that
// pins a whole run.
func fingerprint(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// csv renders every (rep, scenario, solver) cell at full float precision,
// rep-major in suite order.
func (r *Report) csv() []byte {
	var b bytes.Buffer
	b.WriteString("rep,scenario,instanceHash,solver,seed,giant,covered,links,components,fitness,connectivity,coverage\n")
	for rep, run := range r.Runs {
		for _, res := range run.Results {
			fmt.Fprintf(&b, "%d,%s,%s,%s,%d,%d,%d,%d,%d,%s,%s,%s\n",
				rep, res.Scenario, res.InstanceHash, csvField(res.Solver), res.Seed,
				res.Metrics.GiantSize, res.Metrics.Covered, res.Metrics.Links, res.Metrics.Components,
				g(res.Metrics.Fitness), g(res.Connectivity), g(res.Coverage))
		}
	}
	return b.Bytes()
}

// g formats a float with the shortest exact representation.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// csvField quotes a value containing the CSV delimiter (solver specs
// carry commas).
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// cell is one aggregated (scenario, solver) mean across repetitions.
type cell struct{ fitness, connectivity, coverage float64 }

// means aggregates the repetition runs into the scenario × solver grid.
func (r *Report) means() [][]cell {
	ns, nv := len(r.Config.Scenarios), len(r.Config.Specs)
	out := make([][]cell, ns)
	for si := range out {
		out[si] = make([]cell, nv)
	}
	for _, run := range r.Runs {
		for i, res := range run.Results {
			si, vi := i/nv, i%nv
			out[si][vi].fitness += res.Metrics.Fitness
			out[si][vi].connectivity += res.Connectivity
			out[si][vi].coverage += res.Coverage
		}
	}
	n := float64(len(r.Runs))
	for si := range out {
		for vi := range out[si] {
			out[si][vi].fitness /= n
			out[si][vi].connectivity /= n
			out[si][vi].coverage /= n
		}
	}
	return out
}

// markdown renders the aggregated tables: a solver legend (specs are too
// long for column headers), the scenario roster, one table per objective
// with scenarios as rows and solvers as columns, and a per-solver summary
// averaged over the whole grid.
func (r *Report) markdown(fp string) []byte {
	var b bytes.Buffer
	cfg := r.Config
	fmt.Fprintf(&b, "# meshplace experiment report\n\n")
	fmt.Fprintf(&b, "Corpus %s, seed %d, %d rep(s): %d solver(s) × %d scenario(s), all runtimes under a frozen clock.\n",
		r.Corpus, cfg.Seed, cfg.Reps, len(cfg.Specs), len(cfg.Scenarios))
	fmt.Fprintf(&b, "Fingerprint `%s` — regenerate with `make paper` (see manifest.json for the exact recipe).\n\n", fp)

	b.WriteString("## Solvers\n\n| label | spec |\n|---|---|\n")
	for vi, spec := range cfg.Specs {
		fmt.Fprintf(&b, "| S%d | `%s` |\n", vi+1, spec)
	}

	b.WriteString("\n## Scenarios\n\n| scenario | scale | layout | routers | clients |\n|---|---|---|---:|---:|\n")
	for _, sc := range cfg.Scenarios {
		fmt.Fprintf(&b, "| %s | %s | %s | %d | %d |\n",
			sc.Name, sc.Scale, sc.Layout, sc.Gen.NumRouters, sc.Gen.NumClients)
	}

	m := r.means()
	tables := []struct {
		title string
		value func(c cell) string
	}{
		{"Mean fitness", func(c cell) string { return fmt.Sprintf("%.4f", c.fitness) }},
		{"Mean connectivity (giant-component fraction)", func(c cell) string { return fmt.Sprintf("%.1f%%", 100*c.connectivity) }},
		{"Mean client coverage", func(c cell) string { return fmt.Sprintf("%.1f%%", 100*c.coverage) }},
	}
	for _, tb := range tables {
		fmt.Fprintf(&b, "\n## %s\n\n| scenario |", tb.title)
		for vi := range cfg.Specs {
			fmt.Fprintf(&b, " S%d |", vi+1)
		}
		b.WriteString("\n|---|")
		for range cfg.Specs {
			b.WriteString("---:|")
		}
		b.WriteString("\n")
		for si, sc := range cfg.Scenarios {
			fmt.Fprintf(&b, "| %s |", sc.Name)
			for vi := range cfg.Specs {
				fmt.Fprintf(&b, " %s |", tb.value(m[si][vi]))
			}
			b.WriteString("\n")
		}
	}

	b.WriteString("\n## Solver summary (grid means)\n\n| label | spec | fitness | connectivity | coverage |\n|---|---|---:|---:|---:|\n")
	for vi, spec := range cfg.Specs {
		var sum cell
		for si := range cfg.Scenarios {
			sum.fitness += m[si][vi].fitness
			sum.connectivity += m[si][vi].connectivity
			sum.coverage += m[si][vi].coverage
		}
		n := float64(len(cfg.Scenarios))
		fmt.Fprintf(&b, "| S%d | `%s` | %.4f | %.1f%% | %.1f%% |\n",
			vi+1, spec, sum.fitness/n, 100*sum.connectivity/n, 100*sum.coverage/n)
	}
	b.Write(r.paperMarkdown())
	return b.Bytes()
}

// manifest renders the machine-readable recipe.
func (r *Report) manifest(fp string) []byte {
	m := Manifest{
		Corpus:      r.Corpus,
		Seed:        r.Config.Seed,
		Reps:        r.Config.Reps,
		Fingerprint: fp,
	}
	for _, spec := range r.Config.Specs {
		m.Specs = append(m.Specs, spec.String())
	}
	for _, sc := range r.Config.Scenarios {
		m.Scenarios = append(m.Scenarios, sc.Name)
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic("report: manifest does not marshal: " + err.Error())
	}
	return append(out, '\n')
}
