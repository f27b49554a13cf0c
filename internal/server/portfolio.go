package server

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"meshplace/internal/localsearch"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// The portfolio meta-solver races member solvers against one shared
// evaluation budget, reallocating the remaining budget toward the current
// leaders at deterministic slice barriers and returning the best incumbent
// found. Because slices are measured in fitness-evaluation counts rather
// than wall clock, a portfolio solve is byte-identical at any worker
// count; wall-clock deadlines only pick which slice barrier it stops at.

// PortfolioMemberReport describes one raced member in a PortfolioReport.
type PortfolioMemberReport struct {
	// Spec is the member's canonical solver spec.
	Spec string `json:"spec"`
	// Evaluations is the member's share of the spent budget.
	Evaluations int `json:"evaluations"`
	// BestFitness is the member's own best.
	BestFitness float64 `json:"bestFitness"`
	// Completed reports that the member's configured run finished inside
	// its granted budget (rather than being parked when the race ended).
	Completed bool `json:"completed"`
}

// PortfolioReport describes how a portfolio solve raced its members.
type PortfolioReport struct {
	// Budget and Slices echo the spec's configuration.
	Budget int `json:"budget"`
	Slices int `json:"slices"`
	// SlicesRun counts the slices actually executed: fewer than Slices when
	// every member completed early, the budget ran dry, or a deadline
	// truncated the race at a barrier.
	SlicesRun int `json:"slicesRun"`
	// Evaluations is the total spent across members.
	Evaluations int `json:"evaluations"`
	// Winner indexes Members at the member whose best was returned.
	Winner  int                     `json:"winner"`
	Members []PortfolioMemberReport `json:"members"`
}

// defaultPortfolioMembers races the three neighborhood metaheuristics
// against a compact GA — four members over three distinct engine families.
const defaultPortfolioMembers = "search|anneal|tabu|ga:generations=200;pop=32"

// membersParam canonicalizes the portfolio member list: member specs
// separated by "|", with ";" standing in for "," inside a member (the
// outer spec grammar owns ","). Every member is parsed to its full
// canonical form, so the portfolio spec round-trips through ParseSpec and
// String like every other kind.
func membersParam(raw string) (string, error) {
	parts := strings.Split(raw, "|")
	if len(parts) < 2 {
		return "", fmt.Errorf("want at least 2 members separated by %q, got %q", "|", raw)
	}
	canon := make([]string, len(parts))
	for i, part := range parts {
		spec, err := ParseSpec(strings.ReplaceAll(strings.TrimSpace(part), ";", ","))
		if err != nil {
			return "", fmt.Errorf("member %d: %w", i, err)
		}
		if spec.Kind() == "portfolio" {
			return "", fmt.Errorf("member %d: portfolios do not nest", i)
		}
		canon[i] = strings.ReplaceAll(spec.String(), ",", ";")
	}
	return strings.Join(canon, "|"), nil
}

// portfolioMemberSpecs expands the canonical members value back into specs.
// The value was canonicalized by membersParam, so failure is a registry
// bug, not an input error.
func portfolioMemberSpecs(s Spec) []Spec {
	parts := strings.Split(s.Param("members"), "|")
	out := make([]Spec, len(parts))
	for i, part := range parts {
		spec, err := ParseSpec(strings.ReplaceAll(part, ";", ","))
		if err != nil {
			panic(fmt.Sprintf("server: spec %s member %d is not canonical: %v", s, i, err))
		}
		out[i] = spec
	}
	return out
}

// portfolioFactory is the portfolio kind's registry entry. It lives here
// (next to the coordinator) and registers from the same init as the other
// built-ins.
func portfolioFactory() BackendFactory {
	return BackendFactory{
		Doc: "anytime meta-solver racing member solvers in deterministic evaluation-budget slices, reallocating toward leaders at each barrier",
		Params: []BackendParam{
			{Key: "members", Default: defaultPortfolioMembers,
				Doc: `member specs separated by "|", with ";" in place of "," inside a member`, Check: membersParam},
			{Key: "budget", Default: "20000", Doc: "total fitness-evaluation budget shared by the members", Check: intParam(1)},
			{Key: "slices", Default: "8", Doc: "budget slices between reallocation barriers", Check: intParam(1)},
		},
		New: buildPortfolio,
	}
}

func buildPortfolio(spec Spec) (BackendSolve, error) {
	specs := portfolioMemberSpecs(spec)
	runs := make([]BackendSolve, len(specs))
	for i, ms := range specs {
		run, err := registry[ms.Kind()].New(ms)
		if err != nil {
			return nil, fmt.Errorf("member %d (%s): %w", i, ms, err)
		}
		runs[i] = run
	}
	budget, slices := spec.specInt("budget"), spec.specInt("slices")
	return func(ctx context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks) (BackendResult, error) {
		return runPortfolio(ctx, eval, seed, h, specs, runs, budget, slices)
	}, nil
}

// pfState is one message from a member to the coordinator: parked at its
// cumulative target (finished=false) or returned from its engine
// (finished=true, carrying the incumbent solution).
type pfState struct {
	evals    int
	best     wmn.Metrics
	sol      wmn.Solution
	finished bool
	err      error
}

// pfMember is the coordinator's view of one raced member. The goroutine
// running the member engine communicates only through grant and state;
// every other field is owned by the coordinator (one advance and one
// collect per slice, so accesses are ordered by the channels).
type pfMember struct {
	spec Spec
	run  BackendSolve
	seed uint64

	target int          // cumulative evaluation target; read by gate
	grant  chan int     // coordinator -> member: next cumulative target
	state  chan pfState // member -> coordinator

	started   bool
	finished  bool
	completed bool // finished during a slice, not the final drain
	evals     int
	best      wmn.Metrics
	sol       wmn.Solution
	err       error
}

// gate is the member engine's Stop hook: it parks the member goroutine at
// the first phase boundary at or past the cumulative target and waits for
// the next grant. A closed grant channel ends the member's run, making the
// engine return its incumbent.
func (m *pfMember) gate(evals int, best wmn.Metrics) bool {
	if evals < m.target {
		return false
	}
	m.state <- pfState{evals: evals, best: best}
	t, ok := <-m.grant
	if !ok {
		return true
	}
	m.target = t
	return false
}

// loop runs the member engine to completion on its own goroutine, parking
// at slice boundaries via gate, and reports the final outcome. ctx rides
// through to the member backend (members that call out, like a remote
// proxy, need it); budget control stays with the gate.
func (m *pfMember) loop(ctx context.Context, eval *wmn.Evaluator) {
	out, err := m.run(ctx, eval, m.seed, BackendHooks{Stop: m.gate})
	if err != nil {
		m.state <- pfState{finished: true, err: err}
		return
	}
	m.state <- pfState{evals: out.Evaluations, best: out.Metrics, sol: out.Solution, finished: true}
}

// advance lets the member run one more slice: it starts the member's
// goroutine (first slice) or grants the new cumulative target. It does not
// wait for the slice: a started member is parked in gate, ready to take
// the grant.
func (m *pfMember) advance(ctx context.Context, eval *wmn.Evaluator, target int) {
	if !m.started {
		m.started = true
		m.target = target // before the go statement: happens-before the engine
		go m.loop(ctx, eval)
		return
	}
	m.grant <- target
}

// collect blocks until the member parks at its target or finishes, and
// records its state.
func (m *pfMember) collect() {
	st := <-m.state
	m.evals, m.finished, m.err = st.evals, st.finished, st.err
	if st.err == nil {
		m.best = st.best
	}
	if st.finished {
		m.completed, m.sol = true, st.sol
	}
}

// pfLeader returns the index of the best member among those with a
// recorded best: highest fitness, ties broken lexicographically (giant
// size, then coverage) and finally by lower index, so the choice is
// deterministic.
func pfLeader(members []*pfMember) int {
	lead := -1
	for i, m := range members {
		if m.err != nil || !m.started {
			continue
		}
		if lead < 0 || m.best.Fitness > members[lead].best.Fitness ||
			(m.best.Fitness == members[lead].best.Fitness && wmn.BetterLex(m.best, members[lead].best)) {
			lead = i
		}
	}
	return lead
}

// pfShares splits give evaluations across the alive members. The first
// slice is an even split; later slices weight members by rank (leader
// heaviest), so the remaining budget flows toward whoever is winning.
// Floors plus rank-ordered remainders keep the split exact and
// deterministic.
func pfShares(members []*pfMember, alive []int, give int, firstSlice bool) map[int]int {
	n := len(alive)
	order := make([]int, n)
	copy(order, alive)
	if !firstSlice {
		sort.SliceStable(order, func(a, b int) bool {
			ma, mb := members[order[a]], members[order[b]]
			if ma.best.Fitness != mb.best.Fitness {
				return ma.best.Fitness > mb.best.Fitness
			}
			return wmn.BetterLex(ma.best, mb.best)
		})
	}
	shares := make(map[int]int, n)
	if firstSlice {
		base, rem := give/n, give%n
		for k, i := range order {
			shares[i] = base
			if k < rem {
				shares[i]++
			}
		}
		return shares
	}
	totalW := n * (n + 1) / 2
	rem := give
	for k, i := range order {
		w := n - k
		s := give * w / totalW
		shares[i] = s
		rem -= s
	}
	for k := 0; rem > 0; k, rem = (k+1)%n, rem-1 {
		shares[order[k]]++
	}
	return shares
}

// runPortfolio coordinates the race. Each slice grants every alive member
// a deterministic chunk of the remaining budget — the members then run
// concurrently on their own goroutines — collects them in index order,
// then reports the cross-member best at the barrier: h.onPhase sees one
// record per slice, and h.stop (budget/deadline control from the generic
// wrapper) is consulted only at barriers, so truncation lands on slice
// boundaries. The first slice always runs, guaranteeing an incumbent and a
// non-empty anytime curve even under an already-expired deadline.
func runPortfolio(ctx context.Context, eval *wmn.Evaluator, seed uint64, h BackendHooks, specs []Spec, runs []BackendSolve, budget, slices int) (BackendResult, error) {
	members := make([]*pfMember, len(specs))
	for i := range specs {
		members[i] = &pfMember{
			spec:  specs[i],
			run:   runs[i],
			seed:  rng.DeriveString(seed, "solve/portfolio/member/"+strconv.Itoa(i)).Uint64(),
			grant: make(chan int),
			state: make(chan pfState),
		}
	}

	slicesRun := 0
	used := func() int {
		total := 0
		for _, m := range members {
			total += m.evals
		}
		return total
	}

	for s := 1; s <= slices; s++ {
		var alive []int
		for i, m := range members {
			if !m.finished {
				alive = append(alive, i)
			}
		}
		if len(alive) == 0 {
			break
		}
		remaining := budget - used()
		if remaining <= 0 {
			break
		}
		give := remaining / (slices - s + 1)
		if give == 0 {
			give = remaining
		}
		shares := pfShares(members, alive, give, s == 1)
		slicesRun = s
		for _, i := range alive {
			members[i].advance(ctx, eval, members[i].evals+shares[i])
		}
		for _, i := range alive {
			members[i].collect()
		}
		for _, i := range alive {
			if members[i].err != nil {
				drainPortfolio(members)
				return BackendResult{}, fmt.Errorf("portfolio member %d (%s): %w", i, members[i].spec, members[i].err)
			}
		}
		if lead := pfLeader(members); lead >= 0 {
			best := members[lead].best
			if h.OnPhase != nil {
				h.OnPhase(localsearch.PhaseRecord{Phase: s, Metrics: best, Accepted: true, Proposed: true})
			}
			if h.Stop != nil && h.Stop(used(), best) {
				break
			}
		}
	}

	drainPortfolio(members)
	for i, m := range members {
		if m.err != nil {
			return BackendResult{}, fmt.Errorf("portfolio member %d (%s): %w", i, m.spec, m.err)
		}
	}

	winner := pfLeader(members)
	if winner < 0 {
		return BackendResult{}, fmt.Errorf("portfolio produced no result")
	}
	report := &PortfolioReport{
		Budget:      budget,
		Slices:      slices,
		SlicesRun:   slicesRun,
		Evaluations: used(),
		Winner:      winner,
		Members:     make([]PortfolioMemberReport, len(members)),
	}
	for i, m := range members {
		report.Members[i] = PortfolioMemberReport{
			Spec:        m.spec.String(),
			Evaluations: m.evals,
			BestFitness: m.best.Fitness,
			Completed:   m.completed,
		}
	}
	w := members[winner]
	return BackendResult{Solution: w.sol, Metrics: w.best, Evaluations: report.Evaluations, Portfolio: report}, nil
}

// drainPortfolio ends the race: closing a parked member's grant channel
// makes its gate return true, so the engine returns its incumbent without
// another evaluation and the goroutine reports its final state.
func drainPortfolio(members []*pfMember) {
	for _, m := range members {
		if !m.started || m.finished {
			continue
		}
		close(m.grant)
		st := <-m.state
		m.finished = true
		if st.err != nil {
			if m.err == nil {
				m.err = st.err
			}
			continue
		}
		m.evals, m.best, m.sol = st.evals, st.best, st.sol
	}
}
