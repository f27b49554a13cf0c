package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"meshplace/internal/placement"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

func TestPaperTablesComplete(t *testing.T) {
	for i, layout := range []string{"normal", "exponential", "weibull"} {
		rows, table := paperTable(layout)
		if table != i+1 {
			t.Errorf("%s: table number %d, want %d", layout, table, i+1)
		}
		if len(rows) != 7 {
			t.Fatalf("%s: %d paper rows, want 7", layout, len(rows))
		}
		for j, m := range placement.Methods() {
			if rows[j].Method != m {
				t.Errorf("%s: row %d is %v, want %v (paper order)", layout, j, rows[j].Method, m)
			}
		}
	}
	if rows, table := paperTable("uniform"); rows != nil || table != 0 {
		t.Error("a layout the paper does not tabulate has paper rows")
	}
}

// TestPaperTableNumbers pins the paper's numbering: the normal,
// exponential and Weibull studies are Tables 1–3 both in paperTable and in
// the rendered headings, and any other layout has no table.
func TestPaperTableNumbers(t *testing.T) {
	md := string(syntheticReport(t, paperScenarios, Xhafa09Specs(), nil).markdown("fp"))
	for want, layout := range map[int]string{1: "normal", 2: "exponential", 3: "weibull"} {
		if _, table := paperTable(layout); table != want {
			t.Errorf("%s: table number %d, want %d", layout, table, want)
		}
		heading := fmt.Sprintf("### Table %d — v1-base-%s (%s clients)", want, layout, layout)
		if !strings.Contains(md, heading) {
			t.Errorf("results.md lacks %q", heading)
		}
	}
	for _, layout := range []string{"uniform", "hotspots", "bogus"} {
		if _, table := paperTable(layout); table != 0 {
			t.Errorf("%s: table number %d, want 0", layout, table)
		}
	}
}

// TestPaperMarkdownRendersTables pins the rendered tables: each lists
// every method once, and each row puts the measured means (scaled to
// routers and clients) beside the paper's values.
func TestPaperMarkdownRendersTables(t *testing.T) {
	md := string(syntheticReport(t, paperScenarios, Xhafa09Specs(), nil).markdown("fp"))
	tables, table1 := 0, ""
	for _, sec := range strings.Split(md, "\n### ") {
		if !strings.HasPrefix(sec, "Table ") {
			continue
		}
		tables++
		if strings.HasPrefix(sec, "Table 1 ") {
			table1 = sec
		}
		if !strings.Contains(sec, "| method | GA giant | paper |") {
			t.Errorf("table lacks its header row:\n%s", sec)
		}
		for _, m := range placement.Methods() {
			if n := strings.Count(sec, "\n| "+m.String()+" |"); n != 1 {
				t.Errorf("%s: method %v appears in %d rows, want 1", strings.SplitN(sec, "\n", 2)[0], m, n)
			}
		}
	}
	if tables != 3 {
		t.Errorf("results.md renders %d paper tables, want 3", tables)
	}
	// Table 1's Cross row: GA giant 0.85·64, stand-alone giant 0.10·64,
	// zero coverage, beside the paper's 54/74/13/19.
	if row := "| Cross | 54.4 | 54 | 0.0 | 74 | 6.4 | 13 | 0.0 | 19 |"; !strings.Contains(table1, row) {
		t.Errorf("results.md lacks Table 1 row %q", row)
	}
}

func TestPaperHeadlineValues(t *testing.T) {
	// Spot-check transcription against the paper: HotSpot's GA giants are
	// 64, 64, 63 and Table 1's Cross row is 54/74/13/19.
	for layout, want := range map[string]int{"normal": 64, "exponential": 64, "weibull": 63} {
		rows, _ := paperTable(layout)
		if got := rows[placement.HotSpot-1].GAGiant; got != want {
			t.Errorf("%s: paper HotSpot GA giant %d, want %d", layout, got, want)
		}
	}
	rows, _ := paperTable("normal")
	if row := rows[placement.Cross-1]; row != (paperRow{placement.Cross, 54, 74, 13, 19}) {
		t.Errorf("table 1 Cross row = %+v", row)
	}
}

// passingConn is a synthetic set of study means under which every shape
// claim holds on every paper layout.
var passingConn = struct{ stand, ga, search []float64 }{
	// Random, ColLeft, Diag, Cross, Near, Corners, HotSpot.
	stand: []float64{0.05, 0.30, 0.30, 0.10, 0.10, 0.20, 0.90},
	ga:    []float64{0.40, 0.35, 0.90, 0.85, 0.60, 0.20, 0.99},
	// swap 61, random 61, swap 40.
	search: []float64{0.99, 0.40, 0.70},
}

// syntheticReport builds a one-repetition report over the paper's three
// base scenarios (or the given ones) and the given specs whose cells are
// passingConn, after edit has had its way with each scenario's copy.
func syntheticReport(t *testing.T, names []string, specs []server.Spec, edit func(layout string, stand, ga, search []float64)) *Report {
	t.Helper()
	byName := map[string]scenarios.Scenario{}
	for _, sc := range scenarios.Corpus(42) {
		byName[sc.Name] = sc
	}
	col := map[string]int{}
	for vi, spec := range Xhafa09Specs() {
		col[spec.String()] = vi
	}
	r := &Report{Config: Config{Seed: 42, Reps: 1, Specs: specs}, Corpus: scenarios.Version}
	run := &scenarios.Report{}
	for _, name := range names {
		sc, ok := byName[name]
		if !ok {
			t.Fatalf("no scenario %s", name)
		}
		r.Config.Scenarios = append(r.Config.Scenarios, sc)
		stand := append([]float64(nil), passingConn.stand...)
		ga := append([]float64(nil), passingConn.ga...)
		search := append([]float64(nil), passingConn.search...)
		if edit != nil {
			edit(sc.Layout, stand, ga, search)
		}
		all := append(append(stand, ga...), search...)
		for _, spec := range specs {
			run.Results = append(run.Results, scenarios.Result{
				Scenario: sc.Name, Solver: spec.String(), Connectivity: all[col[spec.String()]],
			})
		}
	}
	r.Runs = []*scenarios.Report{run}
	return r
}

var paperScenarios = []string{"v1-base-normal", "v1-base-exponential", "v1-base-weibull"}

// TestShapeClaimsFireOnce keeps the shape gate from being vacuous: every
// claim holds on the passing means, and each edit below breaks exactly
// one claim on exactly one scenario, which Violations reports exactly
// once and results.md lists.
func TestShapeClaimsFireOnce(t *testing.T) {
	pass := syntheticReport(t, paperScenarios, Xhafa09Specs(), nil)
	if v := pass.Violations(); len(v) != 0 {
		t.Fatalf("passing means violate claims: %q", v)
	}
	md := string(pass.markdown("fp"))
	for _, want := range []string{"## Paper comparison", "### Table 1 — v1-base-normal", "### Table 3 — v1-base-weibull",
		"### Figure 4", "| v1-base-exponential | 99.0% | 40.0% | 70.0% |", "Every claim holds."} {
		if !strings.Contains(md, want) {
			t.Errorf("results.md lacks %q", want)
		}
	}

	const (
		random  = placement.Random - 1
		colLeft = placement.ColLeft - 1
		diag    = placement.Diag - 1
		cross   = placement.Cross - 1
		near    = placement.Near - 1
		hotSpot = placement.HotSpot - 1
	)
	cases := []struct {
		name   string
		layout string
		edit   func(stand, ga, search []float64)
		want   string
	}{
		{"GA below stand-alone", "normal", func(s, g, _ []float64) { s[near] = 0.65 }, "Near GA connectivity 60.0% below its stand-alone 65.0%"},
		{"HotSpot not best", "exponential", func(_, g, _ []float64) { g[diag] = 1 }, "HotSpot not the best GA initializer: Diag reached 100.0% > 99.0%"},
		{"Diag ties Corners", "weibull", func(s, g, _ []float64) { s[diag], g[diag] = 0.1, 0.2 }, "Diag GA connectivity 20.0% does not beat Corners' 20.0%"},
		{"stand-alone above 75%", "normal", func(s, _, _ []float64) { s[cross] = 0.8 }, "Cross stand-alone connectivity 80.0% above 75%"},
		{"HotSpot stand-alone is exempt", "normal", func(s, _, _ []float64) { s[hotSpot] = 0.99 }, ""},
		{"normal bottom tier", "normal", func(_, g, _ []float64) { g[colLeft] = 0.65 }, "ColLeft GA connectivity 65.0% not among the 3 worst; 3 below it"},
		{"exponential bottom tier", "exponential", func(_, g, _ []float64) { g[random] = 0.95 }, "Random GA connectivity 95.0% not among the 3 worst; 5 below it"},
		{"weibull Corners last", "weibull", func(_, g, _ []float64) { g[near] = 0.15 }, "Corners GA connectivity 20.0% not among the 1 worst; 1 below it"},
		{"swap ties random at 61", "normal", func(_, _, f []float64) { f[0] = 0.4 }, "swap connectivity 40.0% after 61 phases not above random's 40.0%"},
		{"swap at 40 below random at 61", "weibull", func(_, _, f []float64) { f[2] = 0.3 }, "swap connectivity 30.0% after 40 phases below random's 40.0% after 61"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := syntheticReport(t, paperScenarios, Xhafa09Specs(), func(layout string, s, g, f []float64) {
				if layout == tc.layout {
					tc.edit(s, g, f)
				}
			})
			v := r.Violations()
			if tc.want == "" {
				if len(v) != 0 {
					t.Fatalf("violations %q, want none", v)
				}
				return
			}
			want := "v1-base-" + tc.layout + ": " + tc.want
			if len(v) != 1 || v[0] != want {
				t.Fatalf("violations %q, want exactly [%q]", v, want)
			}
			md := string(r.markdown("fp"))
			if !strings.Contains(md, "- "+want+"\n") || strings.Contains(md, "Every claim holds.") {
				t.Errorf("results.md does not list the violation:\n%s", md)
			}
		})
	}
}

// TestIncompleteGridRendersNoPaperSection pins when the paper section
// appears: only with a study's full set of cells on a base-scale paper
// scenario. Anything less renders none and checks no claim, however badly
// its cells would violate one.
func TestIncompleteGridRendersNoPaperSection(t *testing.T) {
	breakAll := func(_ string, s, g, f []float64) {
		for i := range s {
			s[i], g[i] = 1, 0
		}
		f[0], f[2] = 0, 0
	}
	full := Xhafa09Specs()
	cases := []struct {
		name  string
		scs   []string
		specs []server.Spec
	}{
		{"one table cell missing, no searches", paperScenarios, append(append([]server.Spec(nil), full[:6]...), full[7:14]...)},
		{"one search cell missing, no table", paperScenarios, append(append([]server.Spec(nil), full[7:14]...), full[14:16]...)},
		{"not the paper's scale", []string{"v1-half-normal", "v1-double-weibull"}, full},
		{"not a paper layout", []string{"v1-base-uniform", "v1-base-hotspots"}, full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := syntheticReport(t, tc.scs, tc.specs, breakAll)
			if v := r.Violations(); len(v) != 0 {
				t.Errorf("incomplete grid checked claims: %q", v)
			}
			if md := r.markdown("fp"); bytes.Contains(md, []byte("Paper comparison")) {
				t.Errorf("incomplete grid rendered a paper section")
			}
		})
	}

	// The default suite (what runs/paper sweeps) carries one paper GA cell
	// and one Figure 4 search, never a full study.
	r := syntheticReport(t, paperScenarios, server.DefaultSuiteSpecs(), breakAll)
	if md := r.markdown("fp"); bytes.Contains(md, []byte("Paper comparison")) {
		t.Error("the default suite grid rendered a paper section")
	}
}
