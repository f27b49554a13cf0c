// Command wmnplace is the command-line interface to the meshplace library:
// it generates problem instances, runs the ad hoc placement methods, the
// neighborhood searches and the genetic algorithm, regenerates every table
// and figure of the paper's evaluation, and serves placements over HTTP.
//
// Run "wmnplace help" for the command listing and
// "wmnplace <command> -h" for the flags of each command.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wmnplace:", err)
		os.Exit(1)
	}
}

// command is one wmnplace subcommand: the name it is invoked by, the
// one-line summary the help listing shows, and its entry point.
type command struct {
	name    string
	summary string
	run     func(args []string) error
}

// commands lists every subcommand in alphabetical order — the exact order
// help output and the unknown-command error render, pinned by tests.
var commands = []command{
	{"analyze", "map, per-router report and robustness sweep of a placement", runAnalyze},
	{"ga", "run the genetic algorithm from an ad hoc initializer (-islands for the island model)", runGA},
	{"instance", "generate a problem instance and write it as JSON", runInstance},
	{"loadgen", "drive request load at a server and report throughput/latency", runLoadgen},
	{"paper", "run the reproducible experiment grid (CSV, markdown tables, manifest)", runPaper},
	{"place", "run one ad hoc placement method", runPlace},
	{"search", "run the neighborhood search (swap/random movements)", runSearch},
	{"serve", "serve placement requests over HTTP, optionally as a cluster replica", runServe},
	{"solve", "run any solver spec: built-ins, plugins, portfolio races, remote proxies", runSolve},
	{"solvers", "list every registered solver backend with its parameter schema", runSolvers},
	{"suite", "sweep solvers over the scenario corpus and print the fingerprinted report", runSuite},
}

// commandNames joins the table's names for error messages.
func commandNames() string {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	return strings.Join(names, ", ")
}

// usage writes the alphabetized command listing.
func usage(w io.Writer) {
	fmt.Fprintln(w, "wmnplace — mesh router placement: ad hoc, local search and evolutionary methods")
	fmt.Fprint(w, "\nUsage:\n\n\twmnplace <command> [flags]\n\nCommands:\n\n")
	for _, c := range commands {
		fmt.Fprintf(w, "\t%-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun \"wmnplace <command> -h\" for the flags of each command.")
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("missing command; want one of: %s", commandNames())
	}
	switch args[0] {
	case "-h", "--help", "help":
		usage(os.Stdout)
		return nil
	}
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:])
		}
	}
	return fmt.Errorf("unknown command %q; want one of: %s", args[0], commandNames())
}
