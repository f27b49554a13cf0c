package lint

import "strings"

// Policy decides which rule applies to which package. Three mechanisms:
//
//   - DeterministicOnly rules fire only inside the deterministic core —
//     the packages whose outputs the byte-identity invariance tests pin.
//   - ScopedTo rules fire ONLY inside their listed packages — the inverse
//     of an allowance, for rules that encode a local contract (API-layer
//     documentation) rather than a module-wide invariant.
//   - Allowances disable a rule wholesale in packages where the flagged
//     construct is that package's legitimate business. Every entry
//     carries a written reason, same as a line waiver.
//
// Everything else is module-wide; individual legitimate sites are waived
// in place with //wmnlint:allow comments.
type Policy struct {
	// Deterministic lists the module-relative package paths whose outputs
	// must be bit-reproducible from the seed alone.
	Deterministic []string
	// DeterministicOnly names the rules restricted to those packages.
	DeterministicOnly map[string]bool
	// ScopedTo maps a rule name to the only package paths (and their
	// subpackages) it runs in; rules absent from the map stay module-wide.
	ScopedTo map[string][]string
	// Allowances maps rule name to the packages it is disabled in.
	Allowances map[string][]Allowance
}

// Allowance grants one package a pass on one rule, with the reason
// recorded next to the grant.
type Allowance struct {
	// Path is a module-relative package path; it covers the package and
	// everything below it ("cmd" covers "cmd/wmnplace").
	Path   string
	Reason string
}

// DefaultPolicy is the repository's policy table.
func DefaultPolicy() *Policy {
	return &Policy{
		Deterministic: []string{
			"internal/wmn",
			"internal/ga",
			"internal/localsearch",
			"internal/dist",
			"internal/geom",
			"internal/graph",
			"internal/spatial",
			"internal/placement",
			"internal/rng",
			// The scenario corpus and suite are the reproducibility
			// surface itself: Fingerprint pins their outputs across
			// machines, so they are held to the same bar.
			"internal/scenarios",
			// The experiment runner's artifacts are checked in and
			// drift-gated: a wall-clock byte anywhere would fail every
			// subsequent `make paper-check`.
			"internal/report",
		},
		DeterministicOnly: map[string]bool{
			// Map iteration order and multi-ready selects only corrupt
			// outputs where outputs must be bit-reproducible; the serving
			// layer uses both constructs correctly all the time.
			"mapiter":    true,
			"chanselect": true,
		},
		ScopedTo: map[string][]string{
			// The packages whose exported names are API contracts: the
			// solver-registry plugin surface, the cluster wire surface, and
			// this linter's own analyzer framework.
			"exporteddoc": {"internal/server", "internal/cluster", "internal/lint"},
		},
		Allowances: map[string][]Allowance{
			"wallclock": {
				{Path: "internal/server", Reason: "the serving/telemetry layer: request latency and queue-wait metrics, batch maxWait timers, loadgen pacing are all wall-time by definition"},
			},
			"nakedgo": {
				{Path: "internal/forkjoin", Reason: "owns ForEachIndexed, the bounded index-merged fork-join every other package's fan-out rides"},
				{Path: "internal/server", Reason: "HTTP serving layer: the server's one solve pool, async job waiters, portfolio members, SSE hub and loadgen workers are request-plane goroutines, not library fan-out"},
				{Path: "internal/cluster", Reason: "replica forwarding and journal replay run on the request plane"},
				{Path: "cmd", Reason: "process entry points may spawn servers and signal handlers"},
			},
			"globalrand": {
				{Path: "internal/rng", Reason: "the one package allowed to touch math/rand/v2: every stream in the module derives from its seeded PCG sources"},
			},
		},
	}
}

// Enabled reports whether rule applies to the package at path.
func (p *Policy) Enabled(rule, path string) bool {
	if rule == BadWaiverRule {
		return true
	}
	if p.DeterministicOnly[rule] && !p.IsDeterministic(path) {
		return false
	}
	if scope, ok := p.ScopedTo[rule]; ok {
		in := false
		for _, s := range scope {
			if pathWithin(path, s) {
				in = true
				break
			}
		}
		if !in {
			return false
		}
	}
	for _, a := range p.Allowances[rule] {
		if pathWithin(path, a.Path) {
			return false
		}
	}
	return true
}

// IsDeterministic reports whether path is inside the deterministic core.
func (p *Policy) IsDeterministic(path string) bool {
	for _, d := range p.Deterministic {
		if pathWithin(path, d) {
			return true
		}
	}
	return false
}

// pathWithin reports whether path is prefix itself or below it.
func pathWithin(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
