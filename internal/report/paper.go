package report

import (
	"bytes"
	"fmt"

	"meshplace/internal/placement"
	"meshplace/internal/server"
)

// This file maps the source paper's evaluation (Xhafa, Sánchez and
// Barolli, ICDCS 2009, §5) onto a report grid: Tables 1–3 compare the
// seven ad hoc methods stand-alone and as GA initializers, one table per
// client distribution, and Figure 4 compares the swap and random
// movements of the neighborhood search. Xhafa09Specs is that grid's solver
// axis; run on the base-scale normal, exponential and weibull scenarios it
// is the checked-in runs/xhafa09 snapshot. Whenever a grid holds a study's
// full set of cells, results.md renders the paper's values beside the
// measured means and Violations checks the paper's shape claims.

// paperRow is one row of the paper's Tables 1–3: the size of the giant
// component (routers) and the user coverage (clients), by the GA the
// method initialized and by the method stand-alone.
type paperRow struct {
	Method        placement.Method
	GAGiant       int
	GACoverage    int
	StandGiant    int
	StandCoverage int
}

// paperTables holds the paper's Tables 1, 2 and 3 in order, keyed by the
// corpus layout of their client distribution, rows in the paper's order.
var paperTables = []struct {
	layout string
	rows   []paperRow
}{
	{"normal", []paperRow{
		{placement.Random, 39, 57, 3, 18},
		{placement.ColLeft, 35, 52, 8, 3},
		{placement.Diag, 50, 55, 17, 13},
		{placement.Cross, 54, 74, 13, 19},
		{placement.Near, 48, 60, 13, 35},
		{placement.Corners, 31, 56, 26, 0},
		{placement.HotSpot, 64, 86, 4, 10},
	}},
	{"exponential", []paperRow{
		{placement.Random, 29, 97, 3, 32},
		{placement.ColLeft, 33, 47, 8, 1},
		{placement.Diag, 54, 27, 17, 11},
		{placement.Cross, 50, 40, 13, 1},
		{placement.Near, 43, 44, 13, 0},
		{placement.Corners, 26, 18, 26, 6},
		{placement.HotSpot, 64, 2, 5, 8},
	}},
	{"weibull", []paperRow{
		{placement.Random, 34, 82, 3, 24},
		{placement.ColLeft, 33, 67, 8, 12},
		{placement.Diag, 45, 56, 17, 1},
		{placement.Cross, 46, 62, 13, 3},
		{placement.Near, 45, 41, 13, 0},
		{placement.Corners, 29, 93, 26, 12},
		{placement.HotSpot, 63, 10, 4, 6},
	}},
}

// paperTable returns the paper's reported values for the study of one
// client layout ("normal", "exponential" or "weibull") and the paper's
// table number, or (nil, 0) for any other layout.
func paperTable(layout string) ([]paperRow, int) {
	for i, t := range paperTables {
		if t.layout == layout {
			return t.rows, i + 1
		}
	}
	return nil, 0
}

// fig4Searches are Figure 4's cells in column order: swap and random
// movement at the paper's 61 phases, then swap cut to 40 phases — the
// grid's stand-in for the per-phase curves ("swap improves fast").
var fig4Searches = []struct {
	movement string
	phases   int
}{{"swap", 61}, {"random", 61}, {"swap", 40}}

// Xhafa09Specs returns the paper's solver grid, the named spec set of
// `wmnplace paper -specs xhafa09`: each ad hoc method stand-alone, each as
// the initializer of the paper's GA (one population of 64 for 800
// generations), then Figure 4's three searches from a Random start.
func Xhafa09Specs() []server.Spec {
	var texts []string
	for _, m := range placement.Methods() {
		texts = append(texts, "adhoc:method="+m.String())
	}
	for _, m := range placement.Methods() {
		texts = append(texts, "ga:init="+m.String()+",generations=800,pop=64,islands=1")
	}
	for _, s := range fig4Searches {
		texts = append(texts, fmt.Sprintf("search:movement=%s,init=Random,phases=%d,neighbors=16", s.movement, s.phases))
	}
	specs := make([]server.Spec, len(texts))
	for i, text := range texts {
		spec, err := server.ParseSpec(text)
		if err != nil {
			panic("report: paper spec does not parse: " + err.Error())
		}
		specs[i] = spec
	}
	return specs
}

// paperStudy is one base-scale paper scenario of the grid with the means
// of its study cells. stand and ga are indexed by Method-1 and are nil
// unless the grid holds all fourteen table cells; search follows
// fig4Searches and is nil unless the grid holds all three.
type paperStudy struct {
	scenario string
	routers  int
	clients  int
	layout   string
	table    int
	rows     []paperRow
	stand    []cell
	ga       []cell
	search   []cell
}

// studies locates the paper studies in the grid, in scenario order.
func (r *Report) studies() []paperStudy {
	col := make(map[string]int, len(r.Config.Specs))
	for vi, spec := range r.Config.Specs {
		col[spec.String()] = vi
	}
	paper := Xhafa09Specs()
	n := len(placement.Methods())
	// cells returns a scenario's means for paper[lo:hi], or nil unless
	// every one of those specs is a grid column.
	cells := func(row []cell, lo, hi int) []cell {
		out := make([]cell, 0, hi-lo)
		for _, spec := range paper[lo:hi] {
			vi, ok := col[spec.String()]
			if !ok {
				return nil
			}
			out = append(out, row[vi])
		}
		return out
	}
	means := r.means()
	var out []paperStudy
	for si, sc := range r.Config.Scenarios {
		rows, table := paperTable(sc.Layout)
		if sc.Scale != "base" || rows == nil {
			continue
		}
		st := paperStudy{
			scenario: sc.Name, routers: sc.Gen.NumRouters, clients: sc.Gen.NumClients,
			layout: sc.Layout, table: table, rows: rows,
			stand: cells(means[si], 0, n), ga: cells(means[si], n, 2*n), search: cells(means[si], 2*n, len(paper)),
		}
		if st.stand == nil || st.ga == nil {
			st.stand, st.ga = nil, nil
		}
		if st.stand != nil || st.search != nil {
			out = append(out, st)
		}
	}
	return out
}

// paperMarkdown renders the paper comparison section, or nothing when the
// grid holds no complete study: each table beside the paper's values,
// Figure 4's connectivities, and the shape claims with any violation.
func (r *Report) paperMarkdown() []byte {
	studies := r.studies()
	if len(studies) == 0 {
		return nil
	}
	var b bytes.Buffer
	b.WriteString("\n## Paper comparison\n\n")
	b.WriteString("The source paper's §5 evaluation on this grid. Tables: mean giant component (routers) and mean covered clients ")
	b.WriteString("of each method stand-alone and of the GA it initialized, beside the values the paper reports.\n")
	for _, st := range studies {
		if st.ga == nil {
			continue
		}
		fmt.Fprintf(&b, "\n### Table %d — %s (%s clients)\n\n", st.table, st.scenario, st.layout)
		b.WriteString("| method | GA giant | paper | GA coverage | paper | alone giant | paper | alone coverage | paper |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
		for _, row := range st.rows {
			g, s := st.ga[row.Method-1], st.stand[row.Method-1]
			fmt.Fprintf(&b, "| %s | %.1f | %d | %.1f | %d | %.1f | %d | %.1f | %d |\n", row.Method,
				g.connectivity*float64(st.routers), row.GAGiant, g.coverage*float64(st.clients), row.GACoverage,
				s.connectivity*float64(st.routers), row.StandGiant, s.coverage*float64(st.clients), row.StandCoverage)
		}
	}
	header := false
	for _, st := range studies {
		if st.search == nil {
			continue
		}
		if !header {
			b.WriteString("\n### Figure 4 — swap vs random movement (mean connectivity)\n\n| scenario |")
			for _, s := range fig4Searches {
				fmt.Fprintf(&b, " %s, %d phases |", s.movement, s.phases)
			}
			b.WriteString("\n|---|---:|---:|---:|\n")
			header = true
		}
		fmt.Fprintf(&b, "| %s |", st.scenario)
		for _, c := range st.search {
			fmt.Fprintf(&b, " %.1f%% |", 100*c.connectivity)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n### Shape claims\n\n")
	b.WriteString("The paper's qualitative claims as predicates over the means above; `wmnplace paper -check` fails on any violation.\n\n")
	for _, c := range claims {
		fmt.Fprintf(&b, "- %s\n", c.text)
	}
	if v := violations(studies); len(v) > 0 {
		b.WriteString("\nViolated:\n\n")
		for _, msg := range v {
			fmt.Fprintf(&b, "- %s\n", msg)
		}
	} else {
		b.WriteString("\nEvery claim holds.\n")
	}
	return b.Bytes()
}
