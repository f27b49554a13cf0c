package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small returns flags for a small, fast instance.
func small() []string {
	return []string{"-width", "64", "-height", "64", "-routers", "16", "-clients", "32"}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing command accepted")
	}
}

func TestRunUnknownCommand(t *testing.T) {
	err := run([]string{"optimize"})
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("err = %v", err)
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "inst.json")
	args := append([]string{"-out", out}, small()...)
	if err := run(append([]string{"instance"}, args...)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("instance file not written: %v", err)
	}
	// Load it back through the place command.
	if err := run([]string{"place", "-instance", out, "-method", "HotSpot"}); err != nil {
		t.Fatalf("place on saved instance: %v", err)
	}
}

func TestInstanceBadDistribution(t *testing.T) {
	if err := run([]string{"instance", "-dist", "pareto:alpha=2"}); err == nil {
		t.Error("bad distribution accepted")
	}
}

func TestPlaceAllMethods(t *testing.T) {
	if err := run(append([]string{"place", "-method", "all"}, small()...)); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceUnknownMethod(t *testing.T) {
	if err := run([]string{"place", "-method", "Spiral"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestSearchCommands(t *testing.T) {
	for _, movement := range []string{"swap", "random"} {
		args := append([]string{"search", "-movement", movement, "-phases", "3", "-neighbors", "4"}, small()...)
		if err := run(args); err != nil {
			t.Errorf("search %s: %v", movement, err)
		}
	}
	if err := run([]string{"search", "-movement", "teleport"}); err == nil {
		t.Error("unknown movement accepted")
	}
}

func TestGACommand(t *testing.T) {
	args := append([]string{"ga", "-generations", "5", "-pop", "8", "-init", "Near"}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"ga", "-init", "Bogus"}); err == nil {
		t.Error("unknown initializer accepted")
	}
}

func TestSolveCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sol.json")
	args := append([]string{
		"solve", "-spec", "portfolio:members=search:phases=2;neighbors=2|anneal:steps=16|adhoc,budget=64,slices=2",
		"-anytime", "-out", out,
	}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("solution not written: %v", err)
	}
	// A deadline-bounded run returns the incumbent, never an error.
	args = append([]string{
		"solve", "-spec", "ga:generations=100000,pop=16", "-deadline", "10ms",
	}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"solve", "-spec", "warp:speed=9"}); err == nil {
		t.Error("unknown solver spec accepted")
	}
}

func TestAnalyzeCommand(t *testing.T) {
	args := append([]string{"analyze", "-search", "2", "-trials", "4", "-mapwidth", "24"}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", "-method", "Bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestSuiteCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	args := []string{
		"suite", "-scale", "half", "-workers", "2", "-seed", "3",
		"-methods", "adhoc:method=HotSpot;search:phases=2,neighbors=2", "-json", out,
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(data), "v1-half-ring") {
		t.Error("report JSON does not cover the ring scenario")
	}
}

func TestSuiteCommandErrors(t *testing.T) {
	if err := run([]string{"suite", "-corpus", "v999"}); err == nil {
		t.Error("unknown corpus accepted")
	}
	if err := run([]string{"suite", "-scale", "giant"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"suite", "-methods", "warp:speed=9"}); err == nil {
		t.Error("unknown solver spec accepted")
	}
	if err := run([]string{"suite", "-methods", " ; "}); err == nil {
		t.Error("empty methods list accepted (would sweep everything)")
	}
}

func TestLoadgenCommand(t *testing.T) {
	csvOut := filepath.Join(t.TempDir(), "requests.csv")
	args := []string{
		"loadgen", "-requests", "24", "-concurrency", "4", "-seeds", "2",
		"-spec", "adhoc:method=Near", "-scenario", "v1-half-uniform",
		"-csv", csvOut, "-json",
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	// Header + 24 request rows.
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 25 {
		t.Errorf("CSV has %d lines, want 25", lines)
	}
}

func TestServeCommandErrors(t *testing.T) {
	// Cluster-mode flag validation fails before serving starts.
	if err := run([]string{"serve", "-addr", "127.0.0.1:0", "-quota", "abc"}); err == nil {
		t.Error("bad quota accepted")
	}
	if err := run([]string{"serve", "-addr", "127.0.0.1:0",
		"-peers", "http://other:1", "-self", "http://me:2"}); err == nil {
		t.Error("self outside the peer list accepted")
	}
}

func TestLoadgenCommandErrors(t *testing.T) {
	if err := run([]string{"loadgen", "-scenario", "v1-mega-spiral", "-requests", "1"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"loadgen", "-spec", "warp:speed=9", "-requests", "1"}); err == nil {
		t.Error("unknown solver spec accepted")
	}
}

func TestSolutionSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	instFile := filepath.Join(dir, "inst.json")
	solFile := filepath.Join(dir, "sol.json")
	if err := run(append([]string{"instance", "-out", instFile}, small()...)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"place", "-instance", instFile, "-method", "HotSpot", "-out", solFile}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(solFile); err != nil {
		t.Fatalf("solution not written: %v", err)
	}
	// Analyze the saved solution against the saved instance.
	if err := run([]string{"analyze", "-instance", instFile, "-solution", solFile, "-map=false", "-trials", "4"}); err != nil {
		t.Fatal(err)
	}
	// A solution saved for one instance must be rejected for another.
	if err := run([]string{"analyze", "-solution", solFile, "-routers", "5", "-map=false", "-trials", "4"}); err == nil {
		t.Error("mismatched solution accepted")
	}
}

func TestSearchAndGASaveSolutions(t *testing.T) {
	dir := t.TempDir()
	searchSol := filepath.Join(dir, "search.json")
	gaSol := filepath.Join(dir, "ga.json")
	args := append([]string{"search", "-phases", "2", "-neighbors", "4", "-out", searchSol}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	args = append([]string{"ga", "-generations", "3", "-pop", "8", "-out", gaSol}, small()...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{searchSol, gaSol} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}
