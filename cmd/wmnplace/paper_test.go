package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"meshplace/internal/report"
)

// TestCommandTableSortedAndHelp pins the -h contract: the command table is
// alphabetized, and the help listing names every command with its summary.
func TestCommandTableSortedAndHelp(t *testing.T) {
	if !sort.SliceIsSorted(commands, func(i, j int) bool { return commands[i].name < commands[j].name }) {
		t.Error("command table is not alphabetized")
	}
	var b strings.Builder
	usage(&b)
	help := b.String()
	for _, c := range commands {
		if !strings.Contains(help, c.name) || !strings.Contains(help, c.summary) {
			t.Errorf("help listing lacks %q or its summary", c.name)
		}
		if c.summary == "" {
			t.Errorf("command %q has no summary", c.name)
		}
	}
	// Listings are stable: two renders are byte-identical.
	var b2 strings.Builder
	usage(&b2)
	if b2.String() != help {
		t.Error("help output is not stable across renders")
	}
	// The unknown-command error names every command too.
	err := run([]string{"warp"})
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	for _, c := range commands {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("unknown-command error does not offer %q", c.name)
		}
	}
}

func TestSolversCommand(t *testing.T) {
	if err := run([]string{"solvers"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"solvers", "-json"}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperCommand drives the experiment runner end to end on a smoke-size
// grid: write a run directory, verify it with -check, and pin that a
// second run into another directory produces byte-identical artifacts.
func TestPaperCommand(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"paper", "-seed", "7", "-reps", "1", "-workers", "2",
		"-scenarios", "v1-half-uniform,v1-half-normal",
		"-specs", "adhoc;search:phases=10,neighbors=2",
	}
	runA, runB := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := run(append(args, "-out", runA)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", runB)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"results.csv", "results.md", "manifest.json"} {
		a, err := os.ReadFile(filepath.Join(runA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(runB, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between two identical paper runs", name)
		}
	}
	if err := run([]string{"paper", "-check", runA}); err != nil {
		t.Errorf("-check rejects a fresh run: %v", err)
	}
}

// TestPaperXhafa09Specs drives the named paper grid end to end on one
// paper scenario at one repetition: the manifest records the expanded
// xhafa09 specs, results.md carries the paper section, and -check passes
// exactly when that section reports no violated shape claim.
func TestPaperXhafa09Specs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven 800-generation GA solves")
	}
	dir := filepath.Join(t.TempDir(), "xhafa09")
	if err := run([]string{"paper", "-out", dir, "-seed", "1", "-reps", "1",
		"-scenarios", "v1-base-weibull", "-specs", "xhafa09"}); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range report.Xhafa09Specs() {
		if !strings.Contains(string(manifest), `"`+spec.String()+`"`) {
			t.Errorf("manifest lacks xhafa09 spec %s", spec)
		}
	}
	md, err := os.ReadFile(filepath.Join(dir, "results.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## Paper comparison", "### Table 3 — v1-base-weibull", "### Figure 4", "### Shape claims"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("results.md lacks %q", want)
		}
	}
	violated := strings.Contains(string(md), "Violated:")
	if err := run([]string{"paper", "-check", dir}); (err != nil) != violated {
		t.Errorf("-check = %v, but results.md reports violated claims: %v", err, violated)
	}
}

func TestPaperCommandErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"paper", "-out", dir, "-scale", "giant"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"paper", "-out", dir, "-scenarios", "v1-mega-spiral"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"paper", "-out", dir, "-specs", "warp:speed=9"}); err == nil {
		t.Error("unknown solver spec accepted")
	}
	if err := run([]string{"paper", "-out", dir, "-specs", " ; "}); err == nil {
		t.Error("empty spec list accepted (would sweep everything)")
	}
	if err := run([]string{"paper", "-out", dir, "-reps", "0"}); err == nil {
		t.Error("zero reps accepted")
	}
	if err := run([]string{"paper", "-check", filepath.Join(dir, "missing")}); err == nil {
		t.Error("-check on a missing directory passed")
	}
}

// TestPaperUnknownNamedSpecs covers picking a paper grid by name: a named
// set other than "all" or "xhafa09" and a -specs flag without a value are
// rejected, as is the retired per-table experiment command.
func TestPaperUnknownNamedSpecs(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"paper", "-out", dir, "-specs", "xhafa10"}); err == nil {
		t.Error("unknown named spec set accepted")
	}
	if err := run([]string{"paper", "-out", dir, "-specs"}); err == nil {
		t.Error("missing -specs value accepted")
	}
	if err := run([]string{"experiment", "table1"}); err == nil {
		t.Error("retired experiment command accepted")
	}
}
