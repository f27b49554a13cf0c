// Package lint is the project's own static-analysis pass: a stdlib-only
// (go/ast + go/parser + go/token, no golang.org/x/tools) driver and a
// family of analyzers that enforce the determinism and concurrency
// discipline every invariance test in this repository stakes its
// correctness on — results byte-identical at any worker count, all
// randomness derived from internal/rng seed streams, no wall-clock reads
// on deterministic paths, and all library concurrency riding the
// index-merged fork-join.
//
// Because the module has zero dependencies, the analyzers resolve
// imported-package selectors *syntactically*: a call site `rand.Int()` is
// attributed to "math/rand" by looking the identifier up in the file's
// import table (aliases included), not by type-checking. That makes the
// pass fast and dependency-free at the cost of being a heuristic — a
// local variable shadowing an import name can in principle confuse it.
// The repository does not shadow stdlib package names, and the repo-wide
// self-test keeps it that way.
//
// Suppression is always explicit. A finding is waived with
//
//	//wmnlint:allow <rule>[,<rule>...] — <reason>
//
// trailing on the offending line or on its own line directly above, and
// the reason is mandatory: a waiver without one is itself reported under
// the "badwaiver" rule. Whole packages where a rule legitimately does not
// apply (the serving layer's telemetry timing, the rng package's own use
// of math/rand/v2) are listed — each with a written reason — in the
// policy table in policy.go.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired and a
// human-readable message. Rendered as "file:line:col: [rule] message".
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the diagnostic in the compiler-style one-line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// File is one parsed source file plus its syntactically resolved import
// table.
type File struct {
	AST  *ast.File
	Fset *token.FileSet

	// imports maps the local name a package is referred to by in this
	// file to its import path: {"rand": "math/rand/v2", "clock": "time"}.
	imports map[string]string
	// dotImports are paths imported with `import . "..."`.
	dotImports []string
}

// Package is one directory's worth of non-test files.
type Package struct {
	// Path is the module-relative import path: "internal/wmn",
	// "cmd/wmnplace", or "" for the module root package.
	Path  string
	Files []*File
}

// Analyzer is one rule. Run is invoked once per file; report attributes a
// finding to a position.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkg *Package, file *File, report func(pos token.Pos, format string, args ...any))
}

// BadWaiverRule is the driver-level rule name for malformed
// //wmnlint:allow directives. It cannot itself be waived.
const BadWaiverRule = "badwaiver"

// NewFile builds a File, resolving the import table from the AST.
func NewFile(fset *token.FileSet, f *ast.File) *File {
	file := &File{AST: f, Fset: fset, imports: make(map[string]string)}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		}
		switch name {
		case "_":
			continue
		case ".":
			file.dotImports = append(file.dotImports, path)
			continue
		case "":
			name = defaultImportName(path)
		}
		file.imports[name] = path
	}
	return file
}

// defaultImportName guesses the package name an unaliased import binds:
// the last path segment, skipping version suffixes ("math/rand/v2" binds
// "rand"). Exact for the standard library, which is all a zero-dependency
// module can import.
func defaultImportName(path string) string {
	segs := strings.Split(path, "/")
	name := segs[len(segs)-1]
	if len(segs) > 1 && len(name) > 1 && name[0] == 'v' {
		if digitsOnly(name[1:]) {
			name = segs[len(segs)-2]
		}
	}
	return name
}

func digitsOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// ImportedAs returns the import path the identifier refers to in this
// file, if it names an imported package.
func (f *File) ImportedAs(ident string) (string, bool) {
	path, ok := f.imports[ident]
	return path, ok
}

// DotImports returns the paths imported with a dot import.
func (f *File) DotImports() []string { return f.dotImports }

// pkgSelector reports whether expr is a selector on an imported package
// with the given path, returning the selected name ("Now" for time.Now).
func pkgSelector(f *File, expr ast.Expr, importPath string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	path, ok := f.ImportedAs(x.Name)
	if !ok || path != importPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// allowDirective is one parsed //wmnlint:allow comment.
type allowDirective struct {
	pos    token.Position
	rules  map[string]bool
	reason string
	err    string // non-empty when malformed
}

const allowPrefix = "//wmnlint:allow"

// parseAllowDirectives extracts every //wmnlint:allow comment in the
// file, well-formed or not. known is the set of valid rule names.
func parseAllowDirectives(f *File, known map[string]bool) []allowDirective {
	var out []allowDirective
	for _, group := range f.AST.Comments {
		for _, c := range group.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			d := allowDirective{pos: f.Fset.Position(c.Pos()), rules: make(map[string]bool)}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				// e.g. //wmnlint:allowx — not a directive at all.
				continue
			}
			rulesPart, reason, ok := splitReason(rest)
			if !ok {
				d.err = "waiver has no reason: write `//wmnlint:allow <rule> — <reason>`"
				out = append(out, d)
				continue
			}
			d.reason = reason
			names := strings.FieldsFunc(rulesPart, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
			if len(names) == 0 {
				d.err = "waiver names no rule: write `//wmnlint:allow <rule> — <reason>`"
				out = append(out, d)
				continue
			}
			for _, name := range names {
				if !known[name] {
					d.err = fmt.Sprintf("waiver names unknown rule %q (known: %s)", name, strings.Join(sortedKeys(known), ", "))
					break
				}
				d.rules[name] = true
			}
			out = append(out, d)
		}
	}
	return out
}

// splitReason cuts an allow directive body into the rule list and the
// mandatory reason. The separator is an em dash "—" or a double hyphen
// "--" surrounded by the rule list on the left and free text on the
// right.
func splitReason(s string) (rules, reason string, ok bool) {
	for _, sep := range []string{"—", "--"} {
		if before, after, found := strings.Cut(s, sep); found {
			reason = strings.TrimSpace(after)
			if reason == "" {
				return "", "", false
			}
			return strings.TrimSpace(before), reason, true
		}
	}
	return "", "", false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// runPackage runs every policy-enabled analyzer over the package, then
// applies waivers: a well-formed directive suppresses matching-rule
// findings on its own line and the line directly below; malformed
// directives are reported under BadWaiverRule.
func runPackage(pkg *Package, analyzers []*Analyzer, pol *Policy) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, file := range pkg.Files {
		var fileDiags []Diagnostic
		for _, a := range analyzers {
			if !pol.Enabled(a.Name, pkg.Path) {
				continue
			}
			rule := a.Name
			a.Run(pkg, file, func(pos token.Pos, format string, args ...any) {
				fileDiags = append(fileDiags, Diagnostic{
					Pos:  file.Fset.Position(pos),
					Rule: rule,
					Msg:  fmt.Sprintf(format, args...),
				})
			})
		}
		directives := parseAllowDirectives(file, known)
		allowed := func(d Diagnostic) bool {
			for _, dir := range directives {
				if dir.err != "" || !dir.rules[d.Rule] {
					continue
				}
				if d.Pos.Line == dir.pos.Line || d.Pos.Line == dir.pos.Line+1 {
					return true
				}
			}
			return false
		}
		for _, d := range fileDiags {
			if !allowed(d) {
				diags = append(diags, d)
			}
		}
		for _, dir := range directives {
			if dir.err != "" {
				diags = append(diags, Diagnostic{Pos: dir.pos, Rule: BadWaiverRule, Msg: dir.err})
			}
		}
	}
	return diags
}

// Run applies the analyzers to every package under the policy and
// returns the surviving diagnostics sorted by file, line, column, rule.
func Run(pkgs []*Package, analyzers []*Analyzer, pol *Policy) []Diagnostic {
	if pol == nil {
		pol = DefaultPolicy()
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(pkg, analyzers, pol)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}
