package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"meshplace/internal/report"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

// runPaper runs the reproducible experiment grid behind every documented
// claim: a (scenario × solver) sweep repeated -reps times, written as
// results.csv, results.md and manifest.json. The artifacts are
// deterministic in the manifest's recipe — same seed, same bytes, at any
// -workers value — and `wmnplace paper -check <dir>` re-runs a directory's
// manifest and fails on any drift or violated paper shape claim, which is
// how CI keeps README's tables honest.
func runPaper(args []string) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	out := fs.String("out", "", `output directory (default "runs/<UTC timestamp>")`)
	check := fs.String("check", "", "verify an existing run directory instead of writing one")
	seed := fs.Uint64("seed", 42, "run seed: drives the corpus and every repetition")
	reps := fs.Int("reps", 3, "repetitions per (scenario, solver) cell")
	scale := fs.String("scale", "all", "restrict to one corpus scale: half, base, double or all")
	scenarioNames := fs.String("scenarios", "", "comma-separated scenario names to run (empty = all selected by -scale)")
	specsFlag := fs.String("specs", "all", `solver specs to sweep, ';'-separated, "all" for every registered kind's default, or "xhafa09" for the source paper's Tables 1–3 and Figure 4 grid`)
	workers := fs.Int("workers", 0, "concurrent solves (0 = one per CPU; never affects output bytes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		if err := report.Check(*check); err != nil {
			return err
		}
		fmt.Printf("wmnplace: %s reproduces from its manifest\n", *check)
		return nil
	}

	cfg := report.Config{Seed: *seed, Reps: *reps, Workers: *workers}
	switch *specsFlag {
	case "all": // empty Specs selects server.DefaultSuiteSpecs
	case "xhafa09":
		cfg.Specs = report.Xhafa09Specs()
	default:
		for _, text := range strings.Split(*specsFlag, ";") {
			if strings.TrimSpace(text) == "" {
				continue
			}
			spec, err := server.ParseSpec(text)
			if err != nil {
				return err
			}
			cfg.Specs = append(cfg.Specs, spec)
		}
		if len(cfg.Specs) == 0 {
			return fmt.Errorf(`-specs %q names no solver specs (want "all", "xhafa09" or ';'-separated specs)`, *specsFlag)
		}
	}

	scs := scenarios.Corpus(*seed)
	if *scale != "all" {
		if scs = scenarios.Filter(scs, *scale); len(scs) == 0 {
			return fmt.Errorf("unknown scale %q (want half, base, double or all)", *scale)
		}
	}
	if *scenarioNames != "" {
		byName := map[string]scenarios.Scenario{}
		for _, sc := range scs {
			byName[sc.Name] = sc
		}
		for _, name := range strings.Split(*scenarioNames, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sc, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown scenario %q (see GET /v1/scenarios or the corpus in internal/scenarios)", name)
			}
			cfg.Scenarios = append(cfg.Scenarios, sc)
		}
		if len(cfg.Scenarios) == 0 {
			return fmt.Errorf("-scenarios %q names no scenarios", *scenarioNames)
		}
	} else {
		cfg.Scenarios = scs
	}

	dir := *out
	if dir == "" {
		//wmnlint:allow wallclock — default run-directory name only; every artifact byte inside is clock-free
		dir = "runs/" + time.Now().UTC().Format("20060102-150405")
	}
	rep, err := report.Execute(cfg)
	if err != nil {
		return err
	}
	files := rep.Files()
	if err := report.WriteFiles(dir, files); err != nil {
		return err
	}
	fmt.Printf("wmnplace: wrote %s (%d scenarios × %d solvers × %d reps)\n",
		dir, len(cfg.Scenarios), len(rep.Config.Specs), cfg.Reps)
	var m report.Manifest
	if err := json.Unmarshal(files["manifest.json"], &m); err != nil {
		return err
	}
	fmt.Printf("fingerprint %s\n", m.Fingerprint)
	if v := rep.Violations(); len(v) > 0 {
		for _, msg := range v {
			fmt.Println("SHAPE VIOLATION:", msg)
		}
		fmt.Printf("wmnplace: %d paper shape claim(s) violated; `paper -check %s` fails until they hold\n", len(v), dir)
	}
	return nil
}
