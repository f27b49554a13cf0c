package lint

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures runs the full analyzer family under the default policy
// over every fixture package in testdata/src and matches the diagnostics
// against the fixtures' own expectations: a comment
//
//	// want `regexp` `regexp` ...
//
// on a line means exactly those diagnostics (rendered "[rule] message")
// fire on that line, each matched by its backquoted regexp; lines without
// a want comment must stay silent. Fixture directories mirror the real
// module layout (testdata/src/internal/ga stands in for internal/ga), so
// the policy table — deterministic-only rules, package allowances — is
// exercised exactly as in production.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}

	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		t.Run(rel, func(t *testing.T) {
			fset := token.NewFileSet()
			pkg, err := LoadPackage(fset, dir, rel)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run([]*Package{pkg}, DefaultAnalyzers(), DefaultPolicy())
			checkAgainstWants(t, pkg, diags)
		})
	}
}

var wantRe = regexp.MustCompile("// want((?: +`[^`]*`)+)")
var wantPatRe = regexp.MustCompile("`([^`]*)`")

type lineKey struct {
	file string
	line int
}

func checkAgainstWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, group := range f.AST.Comments {
			for _, c := range group.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := f.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				for _, pat := range wantPatRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(pat[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat[1], err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}

	unmatched := map[lineKey][]string{}
	for _, d := range diags {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		unmatched[key] = append(unmatched[key], "["+d.Rule+"] "+d.Msg)
	}
	for key, res := range wants {
		for _, re := range res {
			hit := -1
			for i, msg := range unmatched[key] {
				if re.MatchString(msg) {
					hit = i
					break
				}
			}
			if hit < 0 {
				t.Errorf("%s:%d: expected a diagnostic matching %q, got %v", key.file, key.line, re, unmatched[key])
				continue
			}
			unmatched[key] = append(unmatched[key][:hit], unmatched[key][hit+1:]...)
		}
	}
	for key, msgs := range unmatched {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic %s", key.file, key.line, msg)
		}
	}
}

// TestRepoLintsClean is the self-test the tier-1 gate rides on: the real
// module, under the real policy, with every waiver carrying its reason,
// produces zero diagnostics. Any new violation — or any waiver stripped
// of its reason — fails this test before it fails `make lint`.
func TestRepoLintsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("wmnlint reports %d finding(s) on the repository; fix them or waive with `//wmnlint:allow <rule> — <reason>`", len(diags))
	}
}

func TestSplitReason(t *testing.T) {
	cases := []struct {
		in         string
		rules, why string
		ok         bool
	}{
		{" wallclock — CLI timing", "wallclock", "CLI timing", true},
		{" wallclock -- CLI timing", "wallclock", "CLI timing", true},
		{" wallclock, nakedgo — both fine here", "wallclock, nakedgo", "both fine here", true},
		{" wallclock", "", "", false},
		{" wallclock — ", "", "", false},
		{"", "", "", false},
	}
	for _, tc := range cases {
		rules, why, ok := splitReason(tc.in)
		if ok != tc.ok || rules != strings.TrimSpace(tc.rules) || why != tc.why {
			t.Errorf("splitReason(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.in, rules, why, ok, strings.TrimSpace(tc.rules), tc.why, tc.ok)
		}
	}
}

func TestDefaultImportName(t *testing.T) {
	cases := map[string]string{
		"time":         "time",
		"math/rand":    "rand",
		"math/rand/v2": "rand",
		"net/http":     "http",
	}
	for path, want := range cases {
		if got := defaultImportName(path); got != want {
			t.Errorf("defaultImportName(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestPolicyEnabled(t *testing.T) {
	pol := DefaultPolicy()
	cases := []struct {
		rule, path string
		want       bool
	}{
		{"wallclock", "internal/wmn", true},
		{"wallclock", "internal/server", false},
		{"wallclock", "internal/cluster", true},
		{"wallclock", "cmd/wmnplace", true},
		{"mapiter", "internal/dist", true},
		{"mapiter", "internal/server", false},
		{"chanselect", "internal/ga", true},
		{"chanselect", "cmd/wmnplace", false},
		{"globalrand", "internal/rng", false},
		{"globalrand", "internal/server", true},
		{"nakedgo", "internal/wmn", true},
		{"nakedgo", "internal/forkjoin", false},
		{"nakedgo", "cmd/wmnplace", false},
		{"ctxbackground", "internal/server", true},
		{"exporteddoc", "internal/server", true},
		{"exporteddoc", "internal/cluster", true},
		{"exporteddoc", "internal/lint", true},
		{"exporteddoc", "internal/wmn", false},
		{"exporteddoc", "cmd/wmnplace", false},
		{BadWaiverRule, "internal/server", true},
	}
	for _, tc := range cases {
		if got := pol.Enabled(tc.rule, tc.path); got != tc.want {
			t.Errorf("Enabled(%q, %q) = %v, want %v", tc.rule, tc.path, got, tc.want)
		}
	}
}
