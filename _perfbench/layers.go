package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"meshplace/internal/cluster"
	"meshplace/internal/localsearch"
	"meshplace/internal/rng"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// verify re-solves every answered triple directly, on a fresh evaluator
// through server.NewSolver(spec).SolveTraced, and fails each triple whose
// served metrics or evaluation count differ. maxInFlight workers share the
// work.
func verify(p *plan, set *instanceSet, ans *answers) error {
	ans.mu.Lock()
	var ids []int
	want := map[int]answer{}
	for t, a := range ans.m {
		if a.bad == "" {
			ids = append(ids, t)
			want[t] = *a
		}
	}
	ans.mu.Unlock()
	sort.Ints(ids)

	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(ids) || first != nil {
			return 0, false
		}
		next++
		return ids[next-1], true
	}
	for range maxInFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t, ok := take(); ok; t, ok = take() {
				rep, err := solveDirect(p, set, t)
				if err != nil {
					mu.Lock()
					first = err
					mu.Unlock()
					return
				}
				if a := want[t]; rep.Metrics != a.metrics || rep.Evaluations != a.evals {
					ans.fail(t, fmt.Sprintf("served %+v after %d evaluations, direct solve %+v after %d",
						a.metrics, a.evals, rep.Metrics, rep.Evaluations))
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// solveDirect solves triple t outside the service, on a fresh evaluator.
func solveDirect(p *plan, set *instanceSet, t int) (server.SolveReport, error) {
	tr := p.triple(t)
	eval, err := wmn.NewEvaluator(set.insts[tr.inst], wmn.EvalOptions{})
	if err != nil {
		return server.SolveReport{}, err
	}
	sv, err := server.NewSolver(p.specs[tr.spec])
	if err != nil {
		return server.SolveReport{}, err
	}
	return sv.(server.TracedSolver).SolveTraced(context.Background(), eval, tr.seed, nil)
}

// replayTriples is how many of the traced window's triples the layer
// replays re-run, in triple order.
const replayTriples = 48

// movementProbes is how many proposals each movement replays per instance.
const movementProbes = 256

// layerSamples are the per-call timings of the post-window replays.
type layerSamples struct {
	newEval, backend      []int64
	evals, usPerEval      []float64
	phase, barrier, slice []int64
	solvePerBackend       []float64
	propose               map[string][]int64
	applyRevert, evaluate []int64
	applyAllocs           float64
	allocPairs            int
	journalReplay         time.Duration
	journalBytes          int64
	journalEntries        int
}

// replayLayers times calls into each layer's public functions on the
// traced window's own triples: wmn.NewEvaluator, then server.NewSolver +
// SolveTraced with an OnPhase hook stamping driver steps, island barriers
// and portfolio slices; then, from each instance's solved placement, the
// workload's movements' ProposeDelta and the IncrementalEvaluator's
// Apply+Revert on every neighbor they propose, beside a full Evaluate of
// the same neighbor. solveNs holds the served solve time of triples the
// window computed, for ratio.solve_per_backend.
func replayLayers(p *plan, set *instanceSet, sample []int, solveNs map[int]int64) (*layerSamples, error) {
	ls := &layerSamples{propose: map[string][]int64{}}
	type base struct {
		eval *wmn.Evaluator
		sol  wmn.Solution
	}
	bases := map[int]base{}
	for _, t := range sample {
		tr := p.triple(t)
		spec := p.specs[tr.spec]
		start := time.Now()
		eval, err := wmn.NewEvaluator(set.insts[tr.inst], wmn.EvalOptions{})
		if err != nil {
			return nil, err
		}
		ls.newEval = append(ls.newEval, int64(time.Since(start)))

		var stamps []time.Time
		start = time.Now()
		sv, err := server.NewSolver(spec)
		if err != nil {
			return nil, err
		}
		rep, err := sv.(server.TracedSolver).SolveTraced(context.Background(), eval, tr.seed, func(localsearch.PhaseRecord) {
			stamps = append(stamps, time.Now())
		})
		if err != nil {
			return nil, err
		}
		d := time.Since(start)
		ls.backend = append(ls.backend, int64(d))
		ls.evals = append(ls.evals, float64(rep.Evaluations))
		if rep.Evaluations > 0 {
			ls.usPerEval = append(ls.usPerEval, float64(d.Microseconds())/float64(rep.Evaluations))
		}
		if s, ok := solveNs[t]; ok && d > 0 {
			ls.solvePerBackend = append(ls.solvePerBackend, float64(s)/float64(d))
		}
		dst := &ls.phase
		switch {
		case spec.Kind() == "portfolio":
			dst = &ls.slice
		case spec.Kind() == "ga" && spec.Param("islands") != "1":
			dst = &ls.barrier
		case spec.Kind() == "ga":
			dst = nil // generations of the single-population GA: no layer metric
		}
		for k := 1; dst != nil && k < len(stamps); k++ {
			*dst = append(*dst, int64(stamps[k].Sub(stamps[k-1])))
		}
		if _, ok := bases[tr.inst]; !ok {
			bases[tr.inst] = base{eval, rep.Solution}
		}
	}

	insts := make([]int, 0, len(bases))
	for i := range bases {
		insts = append(insts, i)
	}
	sort.Ints(insts)
	used := map[string]bool{}
	for _, m := range p.w.movements {
		used[m] = true
	}
	var allocs, pairs float64
	for _, i := range insts {
		b := bases[i]
		in := set.insts[i]
		for _, name := range []string{"swap", "perturb"} {
			mv := newMovement(name)
			r := rng.Derive(p.seedBase, uint64(i)<<8|uint64(len(name)))
			inc, err := wmn.NewIncrementalEvaluator(b.eval, b.sol)
			if err != nil {
				return nil, err
			}
			scratch := wmn.NewSolution(len(b.sol.Positions))
			var changed []int
			var neighbors []neighbor
			for k := 0; k < movementProbes; k++ {
				start := time.Now()
				var ok bool
				changed, ok = mv.ProposeDelta(in, b.sol, scratch, r, changed)
				ls.propose[name] = append(ls.propose[name], int64(time.Since(start)))
				if !ok || !used[name] {
					continue
				}
				start = time.Now()
				inc.Apply(changed, scratch)
				inc.Revert()
				ls.applyRevert = append(ls.applyRevert, int64(time.Since(start)))
				start = time.Now()
				if _, err := b.eval.Evaluate(scratch); err != nil {
					return nil, err
				}
				ls.evaluate = append(ls.evaluate, int64(time.Since(start)))
				neighbors = append(neighbors, neighbor{append([]int(nil), changed...), scratch.Clone()})
			}
			a, n := countAllocs(inc, neighbors)
			allocs += a
			pairs += n
		}
	}
	if pairs > 0 {
		ls.applyAllocs = allocs / pairs
	}
	ls.allocPairs = int(pairs)
	return ls, nil
}

// neighbor is one proposed move kept for the allocation count.
type neighbor struct {
	changed []int
	sol     wmn.Solution
}

// countAllocs replays Apply+Revert over recorded neighbors between two
// heap-statistics reads and returns the allocations and the pairs run.
func countAllocs(inc *wmn.IncrementalEvaluator, ns []neighbor) (float64, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, n := range ns {
		inc.Apply(n.changed, n.sol)
		inc.Revert()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(len(ns))
}

// newMovement builds a movement the way the solver registry does for the
// spec parameter of the same name.
func newMovement(name string) localsearch.DeltaMovement {
	if name == "swap" {
		return localsearch.NewSwapMovement()
	}
	return localsearch.PerturbMovement{}
}

// replayJournals reopens the closed replicas' journal files, timing the
// replay a restart would add to set-up, and checks each holds every
// result it was handed.
func replayJournals(ls *layerSamples, paths []string) error {
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		ls.journalBytes += fi.Size()
		start := time.Now()
		j, err := cluster.OpenJournal(path)
		if err != nil {
			return err
		}
		ls.journalReplay += time.Since(start)
		st := j.Stats()
		if err := j.Close(); err != nil {
			return err
		}
		if st.DiscardedBytes != 0 {
			return fmt.Errorf("journal %s: replay discarded %d bytes", path, st.DiscardedBytes)
		}
		ls.journalEntries += st.Replayed
	}
	return nil
}
