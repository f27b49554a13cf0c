package lint

import (
	"go/ast"
	"go/token"
)

// NakedGo flags `go` statements. Library concurrency must ride
// experiments.ForEachIndexed (or a ga.FanOut bound to it): the fork-join
// merges results by index so output is byte-identical at any worker
// count, and its worker bound caps the fan-out. A naked goroutine has
// neither property. The request plane — the fork-join itself, the
// serving layer with its one worker pool per server, the cluster layer,
// process entry points — is package-allowlisted in the policy table.
func NakedGo() *Analyzer {
	return &Analyzer{
		Name: "nakedgo",
		Doc:  "go statement outside the fork-join/serving layers; ride experiments.ForEachIndexed or ga.FanOut",
		Run: func(pkg *Package, file *File, report func(pos token.Pos, format string, args ...any)) {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					report(g.Pos(), "naked go statement: library concurrency rides experiments.ForEachIndexed (or ga.FanOut), which merges by index and bounds workers")
				}
				return true
			})
		},
	}
}
