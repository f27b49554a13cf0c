package wmn

import (
	"fmt"
	"slices"
	"testing"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
)

func randomTestSolution(in *Instance, r *rng.Rand) Solution {
	sol := NewSolution(in.NumRouters())
	for i := range sol.Positions {
		sol.Positions[i] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
	}
	return sol
}

// Walk step kinds of driveEquivalence. Teleports almost always change a
// moved router's neighbor set; nudges, unmoved indices, empty lists and
// no-diff rebases mostly do not, so they reach Apply's skip path and a
// Revert with nothing to relink.
const (
	stepTeleport = iota
	stepNudgeFine
	stepNudge // σ 2: the perturb movement's default
	stepUnmoved
	stepEmpty
	stepRebaseNoDiff
	numStepKinds
)

// driveEquivalence runs a random walk over every step kind, each followed
// by a Revert half the time, and asserts after every operation that the
// incremental metrics and neighbor sets equal the full evaluator's — the
// metrics compare with ==, so the check covers the Fitness bits too. It
// returns how many Apply calls skipped the connectivity pass.
func driveEquivalence(t *testing.T, in *Instance, opts EvalOptions, seed uint64, steps int) (skipped int) {
	t.Helper()
	eval := mustEval(t, in, opts)
	r := rng.New(seed)
	cur := randomTestSolution(in, r)
	ie, err := NewIncrementalEvaluator(eval, cur)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step int, op string, got Metrics, sol Solution) {
		t.Helper()
		if want := eval.MustEvaluate(sol); got != want {
			t.Fatalf("step %d: %s -> %v, want %v", step, op, got, want)
		}
		assertAdjacency(t, ie, sol)
	}
	check(-1, "new", ie.Metrics(), cur)
	n, area := in.NumRouters(), in.Area()
	scratch := cur.Clone()
	moved := make([]int, 0, 4)
	for step := 0; step < steps; step++ {
		copy(scratch.Positions, cur.Positions)
		moved = moved[:0]
		kind := r.IntN(numStepKinds)
		// Move 1–3 routers; duplicates are legal and must be deduped.
		k := 1 + r.IntN(3)
		switch kind {
		case stepEmpty, stepRebaseNoDiff:
			k = 0
		}
		for j := 0; j < k; j++ {
			i := r.IntN(n)
			p := scratch.Positions[i]
			switch kind {
			case stepTeleport:
				p = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
			case stepNudgeFine, stepNudge:
				sigma := 0.5
				if kind == stepNudge {
					sigma = 2
				}
				p = area.Clamp(geom.Pt(p.X+r.NormFloat64()*sigma, p.Y+r.NormFloat64()*sigma))
			}
			scratch.Positions[i] = p
			moved = append(moved, i)
		}
		// The connectivity pass labels every router, so a label it cannot
		// write shows that the pass was skipped.
		ie.labels[0] = -2
		var got Metrics
		if kind == stepRebaseNoDiff {
			got = ie.Rebase(scratch)
		} else {
			got = ie.Apply(moved, scratch)
		}
		if len(ie.lastMoved) > 0 && ie.labels[0] == -2 {
			skipped++
		}
		check(step, fmt.Sprintf("step kind %d apply %v", kind, moved), got, scratch)
		if r.Float64() < 0.5 {
			ie.Revert()
			check(step, "revert", ie.Metrics(), cur)
		} else {
			copy(cur.Positions, scratch.Positions)
		}
	}
	return skipped
}

// assertAdjacency checks that every router's tracked neighbor set is the
// one the full evaluator's link scan finds on sol.
func assertAdjacency(t *testing.T, ie *IncrementalEvaluator, sol Solution) {
	t.Helper()
	g := ie.eval.buildRouterGraph(sol)
	for v, nbs := range ie.adj {
		got := make([]int, len(nbs))
		for i, w := range nbs {
			got[i] = int(w)
		}
		slices.Sort(got)
		want := slices.Sorted(slices.Values(g.Neighbors(v)))
		if !slices.Equal(got, want) {
			t.Fatalf("router %d neighbors %v, want %v", v, got, want)
		}
	}
}

// TestIncrementalMatchesFullEvaluator fuzzes every model combination across
// both evaluation regimes: at or below smallN (brute-force pair scan; the
// cold-solve benchmark's 128-router instance sits exactly on the gate) and
// above it (the moving spatial index). Under CoverAnyRouter the walk must
// take Apply's skip path at least once, so the fast path cannot quietly
// degrade into always running the connectivity pass; under CoverGiantOnly,
// whose coverage needs fresh component labels, it must never take it.
func TestIncrementalMatchesFullEvaluator(t *testing.T) {
	small := DefaultGenConfig() // 64 routers: brute-force regime
	gate := DefaultGenConfig()
	gate.NumRouters = smallN // still brute force
	gate.Name = "base-smallN"
	large := DefaultGenConfig()
	large.NumRouters = smallN + 22 // index regime
	large.Name = "base-large"
	for _, size := range []GenConfig{small, gate, large} {
		in, err := Generate(size)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			opts EvalOptions
		}{
			{"default", EvalOptions{}},
			{"unit-disk", EvalOptions{Link: LinkUnitDisk}},
			{"giant-only", EvalOptions{Coverage: CoverGiantOnly}},
			{"brute-force", EvalOptions{BruteForce: true}},
			{"unit-giant", EvalOptions{Link: LinkUnitDisk, Coverage: CoverGiantOnly}},
		} {
			t.Run(fmt.Sprintf("%s/%s", size.Name, tc.name), func(t *testing.T) {
				skipped := driveEquivalence(t, in, tc.opts, 7, 120)
				switch giantOnly := tc.opts.Coverage == CoverGiantOnly; {
				case giantOnly && skipped > 0:
					t.Errorf("%d Apply calls skipped the connectivity pass under CoverGiantOnly", skipped)
				case !giantOnly && skipped == 0:
					t.Error("no Apply skipped the connectivity pass")
				}
			})
		}
	}
}

// TestIncrementalEmptyApplyResetsRevertLog pins the undo log across an
// empty move: Revert after an empty Apply must not replay the log of the
// Apply before it. The tracked state, not just the cached metrics, must
// equal a fresh evaluator's.
func TestIncrementalEmptyApplyResetsRevertLog(t *testing.T) {
	// Radius 2, overlap rule: routers 0–1–2 form a chain, router 3 is
	// isolated. Moving router 0 next to router 3 trades its link to 1 for
	// one to 3.
	in := chainInstance(4, 2)
	eval := mustEval(t, in, EvalOptions{})
	base := Solution{Positions: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(8, 0), geom.Pt(50, 0)}}
	ie, err := NewIncrementalEvaluator(eval, base)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	next.Positions[0] = geom.Pt(50, 1)
	ie.Apply([]int{0}, next)
	if ie.sameLinks {
		t.Fatal("the move kept router 0's neighbor set")
	}
	ie.Revert()
	ie.Apply(nil, base)
	ie.Revert()
	fresh, err := NewIncrementalEvaluator(eval, base)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Metrics()
	if got := ie.Metrics(); got != want {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	if got := ie.computeMetrics(); got != want {
		t.Fatalf("recomputed metrics %v, want %v", got, want)
	}
	assertAdjacency(t, ie, base)
}

// FuzzIncrementalApplyRevert lets the fuzzer pick the walk: every seed
// drives a fresh apply/revert sequence checked move by move against the
// full evaluator. `go test -fuzz FuzzIncrementalApplyRevert` explores
// beyond the deterministic corpus of TestIncrementalMatchesFullEvaluator.
func FuzzIncrementalApplyRevert(f *testing.F) {
	in, err := Generate(DefaultGenConfig())
	if err != nil {
		f.Fatal(err)
	}
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, seed%3)
	}
	f.Fuzz(func(t *testing.T, seed, model uint64) {
		opts := EvalOptions{}
		switch model % 3 {
		case 1:
			opts.Coverage = CoverGiantOnly
		case 2:
			opts.Link = LinkUnitDisk
		}
		driveEquivalence(t, in, opts, seed, 25)
	})
}

// TestIncrementalNoClients pins the coverage-free fitness path.
func TestIncrementalNoClients(t *testing.T) {
	in := chainInstance(12, 2)
	driveEquivalence(t, in, EvalOptions{}, 3, 80)
}

func TestIncrementalRebase(t *testing.T) {
	in, err := Generate(DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := mustEval(t, in, EvalOptions{})
	r := rng.New(11)
	ie, err := NewIncrementalEvaluator(eval, randomTestSolution(in, r))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		// Arbitrary targets: rebase must handle any diff size, including a
		// full replacement and a no-op.
		target := randomTestSolution(in, r)
		if got, want := ie.Rebase(target), eval.MustEvaluate(target); got != want {
			t.Fatalf("step %d: rebase -> %v, want %v", step, got, want)
		}
		if got := ie.Rebase(target); got != ie.Metrics() {
			t.Fatalf("step %d: no-op rebase changed metrics", step)
		}
	}
}

func TestIncrementalRevertAfterRebase(t *testing.T) {
	in, err := Generate(DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	eval := mustEval(t, in, EvalOptions{})
	r := rng.New(13)
	base := randomTestSolution(in, r)
	ie, err := NewIncrementalEvaluator(eval, base)
	if err != nil {
		t.Fatal(err)
	}
	ie.Rebase(randomTestSolution(in, r))
	ie.Revert()
	if got, want := ie.Metrics(), eval.MustEvaluate(base); got != want {
		t.Fatalf("revert after rebase -> %v, want %v", got, want)
	}
	for i := range base.Positions {
		if ie.Position(i) != base.Positions[i] {
			t.Fatalf("router %d at %v after revert, want %v", i, ie.Position(i), base.Positions[i])
		}
	}
}

func TestIncrementalCopyCurrent(t *testing.T) {
	in := chainInstance(5, 2)
	eval := mustEval(t, in, EvalOptions{})
	sol := Solution{Positions: []geom.Point{
		geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(4, 4), geom.Pt(5, 5),
	}}
	ie, err := NewIncrementalEvaluator(eval, sol)
	if err != nil {
		t.Fatal(err)
	}
	// The tracked state is a copy: mutating the input must not leak in.
	sol.Positions[0] = geom.Pt(9, 9)
	out := NewSolution(5)
	ie.CopyCurrent(out)
	if out.Positions[0] != geom.Pt(1, 1) {
		t.Errorf("tracked solution aliases the caller's: %v", out.Positions[0])
	}
	if ie.Evaluator() != eval {
		t.Error("Evaluator() does not return the wrapped evaluator")
	}
}

func TestIncrementalStructuralPanics(t *testing.T) {
	in := chainInstance(3, 2)
	eval := mustEval(t, in, EvalOptions{})
	if _, err := NewIncrementalEvaluator(eval, NewSolution(2)); err == nil {
		t.Error("wrong-length starting solution accepted")
	}
	ie, err := NewIncrementalEvaluator(eval, NewSolution(3))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Apply with wrong length", func() { ie.Apply(nil, NewSolution(2)) })
	mustPanic("Apply with out-of-range index", func() { ie.Apply([]int{7}, NewSolution(3)) })
	mustPanic("Rebase with wrong length", func() { ie.Rebase(NewSolution(1)) })
	mustPanic("CopyCurrent with wrong length", func() { ie.CopyCurrent(NewSolution(1)) })
	mustPanic("Revert before Apply", func() { ie.Revert() })
	ie.Apply([]int{0}, Solution{Positions: []geom.Point{geom.Pt(1, 1), {}, {}}})
	ie.Revert()
	mustPanic("double Revert", func() { ie.Revert() })
}
