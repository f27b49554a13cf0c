package report

import (
	"fmt"

	"meshplace/internal/placement"
)

// The paper's qualitative claims as "shape" predicates over a study's
// means. The reproduction is judged on shapes — method orderings and
// improvement directions — rather than on the absolute table entries,
// because the substrate (a from-scratch simulator, parameters the paper
// does not report) differs from the authors'. README's "Paper
// reproduction" section records the two places where the shapes diverge
// from the paper's wording.

// claim is one shape predicate. Table claims read a study's stand-alone
// and GA cells; Figure 4 claims (fig4 set) read its search cells. check
// returns one message per violation.
type claim struct {
	text  string
	fig4  bool
	check func(st paperStudy) []string
}

// claims lists every predicate in the order results.md renders them.
var claims = []claim{
	{
		text: "the GA never ends below the stand-alone connectivity of the method that initialized it",
		check: func(st paperStudy) []string {
			var out []string
			for _, m := range placement.Methods() {
				if g, s := st.gaConn(m), st.standConn(m); g < s {
					out = append(out, fmt.Sprintf("%s GA connectivity %s below its stand-alone %s", m, pct(g), pct(s)))
				}
			}
			return out
		},
	},
	{
		text: "HotSpot is the best GA initializer (ties allowed)",
		check: func(st paperStudy) []string {
			var out []string
			for _, m := range placement.Methods() {
				if st.gaConn(m) > st.gaConn(placement.HotSpot) {
					out = append(out, fmt.Sprintf("HotSpot not the best GA initializer: %s reached %s > %s",
						m, pct(st.gaConn(m)), pct(st.gaConn(placement.HotSpot))))
				}
			}
			return out
		},
	},
	{
		text: "Diag and Cross beat Corners as GA initializers",
		check: func(st paperStudy) []string {
			var out []string
			for _, m := range []placement.Method{placement.Diag, placement.Cross} {
				if st.gaConn(m) <= st.gaConn(placement.Corners) {
					out = append(out, fmt.Sprintf("%s GA connectivity %s does not beat Corners' %s",
						m, pct(st.gaConn(m)), pct(st.gaConn(placement.Corners))))
				}
			}
			return out
		},
	},
	{
		text: "stand-alone, every method but HotSpot connects at most 75% of the routers (HotSpot is exempt, see README)",
		check: func(st paperStudy) []string {
			var out []string
			for _, m := range placement.Methods() {
				if m != placement.HotSpot && st.standConn(m) > 0.75 {
					out = append(out, fmt.Sprintf("%s stand-alone connectivity %s above 75%%", m, pct(st.standConn(m))))
				}
			}
			return out
		},
	},
	{
		text: "§5.2.1's poor performers: ColLeft and Corners among the three worst GA initializers on normal clients, " +
			"Corners and Random on exponential, Corners the worst on weibull",
		check: func(st paperStudy) []string {
			var out []string
			switch st.layout {
			case "normal":
				out = append(out, st.bottomTier(placement.ColLeft, 3)...)
				out = append(out, st.bottomTier(placement.Corners, 3)...)
			case "exponential":
				out = append(out, st.bottomTier(placement.Corners, 3)...)
				out = append(out, st.bottomTier(placement.Random, 3)...)
			case "weibull":
				out = append(out, st.bottomTier(placement.Corners, 1)...)
			}
			return out
		},
	},
	{
		text: "Figure 4: after 61 phases the swap movement ends above the random movement",
		fig4: true,
		check: func(st paperStudy) []string {
			if swap, random := st.search[0].connectivity, st.search[1].connectivity; swap <= random {
				return []string{fmt.Sprintf("swap connectivity %s after 61 phases not above random's %s", pct(swap), pct(random))}
			}
			return nil
		},
	},
	{
		text: "Figure 4: swap improves fast — after 40 phases it connects at least as much as random after 61",
		fig4: true,
		check: func(st paperStudy) []string {
			if swap40, random := st.search[2].connectivity, st.search[1].connectivity; swap40 < random {
				return []string{fmt.Sprintf("swap connectivity %s after 40 phases below random's %s after 61", pct(swap40), pct(random))}
			}
			return nil
		},
	},
}

// violations checks every claim against every study holding its cells
// and returns the violations, each prefixed with its scenario.
func violations(studies []paperStudy) []string {
	var out []string
	for _, st := range studies {
		for _, c := range claims {
			if (c.fig4 && st.search == nil) || (!c.fig4 && st.ga == nil) {
				continue
			}
			for _, msg := range c.check(st) {
				out = append(out, st.scenario+": "+msg)
			}
		}
	}
	return out
}

// Violations returns one message per violated shape claim of the paper
// studies the grid holds; empty when every claim holds or the grid holds
// no complete study.
func (r *Report) Violations() []string { return violations(r.studies()) }

func (st paperStudy) gaConn(m placement.Method) float64    { return st.ga[m-1].connectivity }
func (st paperStudy) standConn(m placement.Method) float64 { return st.stand[m-1].connectivity }

// bottomTier reports a violation unless m's GA connectivity ranks among
// the worst k of the seven methods (ties counted in m's favor).
func (st paperStudy) bottomTier(m placement.Method, k int) []string {
	below := 0
	for _, other := range placement.Methods() {
		if st.gaConn(other) < st.gaConn(m) {
			below++
		}
	}
	if below >= k {
		return []string{fmt.Sprintf("%s GA connectivity %s not among the %d worst; %d below it",
			m, pct(st.gaConn(m)), k, below)}
	}
	return nil
}

// pct renders a connectivity fraction as the tables do.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
