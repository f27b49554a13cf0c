// Command wmnlint runs the project's determinism & discipline linter
// (internal/lint): stdlib-only static analysis enforcing the invariants
// the byte-identity tests stake their correctness on — no global
// math/rand, no wall-clock reads on deterministic paths, no
// order-dependent map iteration, no severed context chains, no naked
// goroutines outside the fork-join/serving layers.
//
// Usage:
//
//	wmnlint [packages]      lint the given packages (default ./...)
//	wmnlint -rules          list the rules and what they enforce
//
// Patterns follow the go tool: "./..." lints the whole module,
// "./internal/wmn/..." a subtree, "./internal/wmn" one package. Findings
// print as "file:line:col: [rule] message" with module-relative paths and
// the exit status is 1 when any survive; waive individual lines with
// `//wmnlint:allow <rule> — <reason>` (see internal/lint/policy.go for
// the package-level allowance table).
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"meshplace/internal/lint"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wmnlint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wmnlint", flag.ContinueOnError)
	rules := fs.Bool("rules", false, "list the rules and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rules {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-14s %s\n", lint.BadWaiverRule, "a //wmnlint:allow directive missing its rule or reason (driver-level, not waivable)")
		return nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return err
	}

	fset := token.NewFileSet()
	var pkgs []*lint.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		dir, recursive := strings.CutSuffix(pat, "/...")
		if dir == "." || dir == "" {
			dir = cwd
		} else {
			dir = filepath.Join(cwd, dir)
		}
		loaded, err := lint.LoadDir(fset, root, dir, recursive)
		if err != nil {
			return err
		}
		for _, p := range loaded {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	diags := lint.Run(pkgs, lint.DefaultAnalyzers(), lint.DefaultPolicy())
	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "wmnlint: %d finding(s)\n", n)
		os.Exit(1)
	}
	return nil
}
