package wmn

import (
	"fmt"
	"slices"

	"meshplace/internal/geom"
	"meshplace/internal/spatial"
)

// IncrementalEvaluator measures one evolving solution under the same model
// as Evaluator, but pays only for what a move touches. It maintains the
// router adjacency lists, the link count, a per-client cover count and (for
// large instances) a spatial index whose points move between buckets instead
// of being rebuilt, so re-evaluating a neighbor that moves k routers costs
// O(k·(deg + clients-in-disk)) — instead of the full O(N²) pair scan (or a
// fresh index allocation) and the O(N·c) coverage rescan of
// Evaluator.Evaluate. A connectivity pass over the adjacency lists is added
// only when the move changes some moved router's neighbor set (or the
// coverage model is CoverGiantOnly); Revert replays a log of the changed
// links instead of scanning for them.
//
// The engine is exact, not approximate: for any sequence of Apply, Revert
// and Rebase calls the returned Metrics are identical — including the
// Fitness bits — to Evaluator.Evaluate on the same positions. The
// equivalence is pinned by fuzzed apply/revert tests against the full
// evaluator across the scenario corpus, whose walks mix teleports with the
// small nudges that keep neighbor sets and so take the skip path.
//
// Usage follows the search hot loops: Apply moves the tracked solution to a
// neighbor and returns its metrics; Revert undoes the most recent Apply
// (one level of undo — enough for propose/evaluate/reject loops); an
// accepted move simply is not reverted. Rebase is Apply for callers that do
// not know which routers changed (it diffs internally), used by the GA to
// step between arbitrary children.
//
// An IncrementalEvaluator is NOT safe for concurrent use; the wrapped
// Evaluator remains safe to share.
type IncrementalEvaluator struct {
	eval *Evaluator
	cur  Solution // owned copy of the tracked solution

	adj   [][]int32 // router adjacency lists (the live link graph)
	links int       // number of edges in adj

	coverCount []int32 // per client: number of routers whose disk holds it
	coveredAny int     // number of clients with coverCount > 0

	// routerIdx indexes cur.Positions when the instance is past the smallN
	// threshold (and brute force is not forced); points are moved between
	// buckets on updates, never rebuilt.
	routerIdx *spatial.Index

	curMetrics Metrics

	// Single-level revert log: the moved routers and their outgoing
	// positions, the links the move dropped and added, whether those were
	// the same set, and the metrics before the move.
	lastMoved   []int
	lastPos     []geom.Point
	dropped     []arc
	added       []arc
	sameLinks   bool
	lastMetrics Metrics
	canRevert   bool

	// Scratch buffers, reused across calls.
	newPos     []geom.Point
	movedBuf   []int
	labels     []int32
	queue      []int32
	sizes      []int
	movedMark  []uint64
	movedEpoch uint64
	clientMark []uint64
	markEpoch  uint64
}

// NewIncrementalEvaluator wraps the evaluator's instance plus a starting
// solution. The solution is copied; the caller's value is never mutated.
func NewIncrementalEvaluator(e *Evaluator, sol Solution) (*IncrementalEvaluator, error) {
	n := e.inst.NumRouters()
	if len(sol.Positions) != n {
		return nil, fmt.Errorf("wmn: incremental: solution has %d positions for %d routers",
			len(sol.Positions), n)
	}
	ie := &IncrementalEvaluator{
		eval:       e,
		cur:        sol.Clone(),
		adj:        make([][]int32, n),
		coverCount: make([]int32, e.inst.NumClients()),
		lastPos:    make([]geom.Point, 0, 4),
		newPos:     make([]geom.Point, 0, 4),
		labels:     make([]int32, n),
		movedMark:  make([]uint64, n),
		clientMark: make([]uint64, e.inst.NumClients()),
	}
	if !e.opts.BruteForce && n > smallN {
		cell := 2 * e.inst.MaxRadius()
		if cell <= 0 {
			cell = 1
		}
		idx, err := spatial.NewIndex(e.inst.Area(), ie.cur.Positions, cell)
		if err != nil {
			return nil, fmt.Errorf("wmn: incremental: router index: %w", err)
		}
		ie.routerIdx = idx
	}
	ie.buildInitialState()
	ie.curMetrics = ie.computeMetrics()
	return ie, nil
}

// buildInitialState fills adjacency and cover counts for the starting
// solution — the one full-cost pass of the evaluator's lifetime. The link
// scan is the full evaluator's own, so the two cannot drift.
func (ie *IncrementalEvaluator) buildInitialState() {
	e := ie.eval
	g := e.buildRouterGraph(ie.cur)
	for v := range ie.adj {
		for _, w := range g.Neighbors(v) {
			ie.adj[v] = append(ie.adj[v], int32(w))
		}
	}
	ie.links = g.NumEdges()
	for i, p := range ie.cur.Positions {
		e.visitClientsWithin(p, e.inst.Radii[i], func(c int) {
			ie.coverCount[c]++
			if ie.coverCount[c] == 1 {
				ie.coveredAny++
			}
		})
	}
}

// Evaluator returns the wrapped full evaluator (the oracle).
func (ie *IncrementalEvaluator) Evaluator() *Evaluator { return ie.eval }

// Metrics returns the metrics of the tracked solution.
func (ie *IncrementalEvaluator) Metrics() Metrics { return ie.curMetrics }

// Position returns the tracked position of router i.
func (ie *IncrementalEvaluator) Position(i int) geom.Point { return ie.cur.Positions[i] }

// CopyCurrent copies the tracked solution into dst, which must have the
// instance's router count.
func (ie *IncrementalEvaluator) CopyCurrent(dst Solution) {
	if len(dst.Positions) != len(ie.cur.Positions) {
		panic(fmt.Sprintf("wmn: incremental: copy into %d positions for %d routers",
			len(dst.Positions), len(ie.cur.Positions)))
	}
	copy(dst.Positions, ie.cur.Positions)
}

// Apply moves the tracked solution to sol, whose positions may differ from
// the current solution only at the indices in moved, and returns the new
// metrics. Structural mistakes (wrong length, out-of-range index) panic,
// mirroring MustEvaluate: they indicate a library bug, not bad input. A
// moved index whose position did not actually change is allowed and
// harmless. The move replaces the revert log: Revert undoes exactly the
// latest Apply.
//
// Apply logs every link it drops and adds. When the moved routers keep
// exactly their neighbor sets the link graph is unchanged, so under
// CoverAnyRouter the connectivity pass is skipped and the move costs only
// its link scan and coverage update.
func (ie *IncrementalEvaluator) Apply(moved []int, sol Solution) Metrics {
	n := len(ie.cur.Positions)
	if len(sol.Positions) != n {
		panic(fmt.Sprintf("wmn: incremental: apply of %d positions for %d routers",
			len(sol.Positions), n))
	}
	// Dedupe moved into the revert log, recording the outgoing positions.
	// The marks also tell the link scan which routers are moving.
	ie.movedEpoch++
	ie.lastMoved = ie.lastMoved[:0]
	ie.lastPos = ie.lastPos[:0]
	ie.newPos = ie.newPos[:0]
	ie.dropped = ie.dropped[:0]
	ie.added = ie.added[:0]
	for _, m := range moved {
		if m < 0 || m >= n {
			panic(fmt.Sprintf("wmn: incremental: moved router %d outside [0,%d)", m, n))
		}
		if ie.movedMark[m] == ie.movedEpoch {
			continue
		}
		ie.movedMark[m] = ie.movedEpoch
		ie.lastMoved = append(ie.lastMoved, m)
		ie.lastPos = append(ie.lastPos, ie.cur.Positions[m])
		ie.newPos = append(ie.newPos, sol.Positions[m])
	}
	ie.lastMetrics = ie.curMetrics
	ie.canRevert = true
	// Empty-delta moves happen in practice (a clamped border nudge lands
	// back on the same point); the state is unchanged and the log, reset
	// above, gives Revert nothing to replay.
	if len(ie.lastMoved) == 0 {
		return ie.curMetrics
	}
	ie.sameLinks = ie.move()
	if ie.sameLinks && ie.eval.opts.Coverage == CoverAnyRouter {
		// Same graph, same components; only the coverage moved.
		ie.curMetrics = ie.assemble(ie.curMetrics.GiantSize, ie.curMetrics.Components, ie.coveredAny)
	} else {
		ie.curMetrics = ie.computeMetrics()
	}
	return ie.curMetrics
}

// Rebase is Apply for callers that do not track which routers moved: it
// diffs sol against the current solution and applies the difference. The
// GA's offspring evaluation uses it, where the diff shrinks as the
// population converges.
func (ie *IncrementalEvaluator) Rebase(sol Solution) Metrics {
	n := len(ie.cur.Positions)
	if len(sol.Positions) != n {
		panic(fmt.Sprintf("wmn: incremental: rebase of %d positions for %d routers",
			len(sol.Positions), n))
	}
	moved := ie.movedBuf[:0]
	for i := range sol.Positions {
		if sol.Positions[i] != ie.cur.Positions[i] {
			moved = append(moved, i)
		}
	}
	ie.movedBuf = moved
	return ie.Apply(moved, sol)
}

// Revert undoes the most recent Apply (or Rebase), restoring the previous
// solution and metrics. It replays the arc log instead of re-scanning for
// links: the added arcs go, the dropped ones come back, and neither step
// is needed when the move kept every neighbor set. It panics when there is
// nothing to revert — reverting twice, or before any Apply, is a caller
// bug.
func (ie *IncrementalEvaluator) Revert() {
	if !ie.canRevert {
		panic("wmn: incremental: Revert without a preceding Apply")
	}
	e := ie.eval
	if !ie.sameLinks {
		// Every added arc starts at a moved router, whose list then holds
		// nothing else: clear those lists, then remove the other endpoint's
		// half (already gone when that endpoint moved too).
		for _, m := range ie.lastMoved {
			ie.adj[m] = ie.adj[m][:0]
		}
		for _, a := range ie.added {
			m, nb := a.ends()
			ie.removeArc(nb, m)
		}
		for _, a := range ie.dropped {
			ie.link(a.ends())
		}
		ie.links += len(ie.dropped) - len(ie.added)
	}
	for k, m := range ie.lastMoved {
		r := e.inst.Radii[m]
		ie.uncover(ie.cur.Positions[m], r)
		if ie.routerIdx != nil {
			ie.routerIdx.Move(m, ie.lastPos[k]) // shares cur.Positions backing
		}
		ie.cur.Positions[m] = ie.lastPos[k]
		ie.cover(ie.cur.Positions[m], r)
	}
	ie.curMetrics = ie.lastMetrics
	ie.canRevert = false
}

// move relocates the routers in lastMoved (all marked with movedEpoch) to
// newPos, updating adjacency, link count and cover counts, and logs each
// link it drops and adds as an arc from a moved router. It reports whether
// the added arcs are exactly the dropped ones: then every moved router kept
// its neighbor set. A link between two moved routers is logged once in
// each log, from the one earlier in lastMoved, so the two logs compare
// as sets.
func (ie *IncrementalEvaluator) move() bool {
	e := ie.eval
	moved := ie.lastMoved
	// Drop every edge incident to a moved router. Edges between two moved
	// routers disappear with the first endpoint; the second sees a shorter
	// list, so the link count stays exact.
	for _, m := range moved {
		for _, nb := range ie.adj[m] {
			ie.removeArc(nb, int32(m))
			ie.dropped = append(ie.dropped, makeArc(int32(m), nb))
		}
		ie.links -= len(ie.adj[m])
		ie.adj[m] = ie.adj[m][:0]
	}
	// Uncover the clients of the outgoing disks, then commit the new
	// positions (the spatial index moves points between buckets in place).
	for _, m := range moved {
		ie.uncover(ie.cur.Positions[m], e.inst.Radii[m])
	}
	for k, m := range moved {
		if ie.routerIdx != nil {
			ie.routerIdx.Move(m, ie.newPos[k]) // shares cur.Positions backing
		}
		ie.cur.Positions[m] = ie.newPos[k]
	}
	// Relink: moved↔stationary pairs come from the candidate scan (skipping
	// marked routers so a pair of moved endpoints is not added twice), then
	// moved↔moved pairs are checked directly — k is small, so the k² term
	// is noise.
	for _, m := range moved {
		ie.linkAgainstStationary(m)
	}
	for a := 0; a < len(moved); a++ {
		for b := a + 1; b < len(moved); b++ {
			if e.linked(ie.cur, moved[a], moved[b]) {
				ie.addEdge(moved[a], moved[b])
			}
		}
	}
	for _, m := range moved {
		ie.cover(ie.cur.Positions[m], e.inst.Radii[m])
	}
	if len(ie.added) != len(ie.dropped) {
		return false
	}
	slices.Sort(ie.dropped)
	slices.Sort(ie.added)
	return slices.Equal(ie.dropped, ie.added)
}

// linkAgainstStationary adds every edge between the (already re-positioned)
// moved router m and the routers that did not move in this step.
func (ie *IncrementalEvaluator) linkAgainstStationary(m int) {
	e := ie.eval
	if ie.routerIdx == nil {
		for j := range ie.cur.Positions {
			if ie.movedMark[j] != ie.movedEpoch && e.linked(ie.cur, m, j) {
				ie.addEdge(m, j)
			}
		}
		return
	}
	reach := 2 * e.inst.MaxRadius()
	ie.routerIdx.VisitWithin(ie.cur.Positions[m], reach, func(j int) {
		if ie.movedMark[j] != ie.movedEpoch && e.linked(ie.cur, m, j) {
			ie.addEdge(m, j)
		}
	})
}

// addEdge links the moved router m to j and logs the arc for Revert.
func (ie *IncrementalEvaluator) addEdge(m, j int) {
	ie.added = append(ie.added, makeArc(int32(m), int32(j)))
	ie.link(int32(m), int32(j))
	ie.links++
}

// link appends each endpoint to the other's adjacency list; the caller
// keeps the link count.
func (ie *IncrementalEvaluator) link(i, j int32) {
	ie.adj[i] = append(ie.adj[i], j)
	ie.adj[j] = append(ie.adj[j], i)
}

// arc is a logged link: the moved router in the high half, the other
// endpoint in the low half. Packing makes the logs sortable as integers.
type arc uint64

func makeArc(m, nb int32) arc { return arc(uint64(uint32(m))<<32 | uint64(uint32(nb))) }

func (a arc) ends() (m, nb int32) { return int32(a >> 32), int32(uint32(a)) }

// removeArc deletes one occurrence of target from adj[v] by swap-remove;
// adjacency order is not part of the evaluator's observable state.
func (ie *IncrementalEvaluator) removeArc(v, target int32) {
	b := ie.adj[v]
	for i, w := range b {
		if w == target {
			b[i] = b[len(b)-1]
			ie.adj[v] = b[:len(b)-1]
			return
		}
	}
}

func (ie *IncrementalEvaluator) uncover(p geom.Point, r float64) {
	ie.eval.visitClientsWithin(p, r, func(c int) {
		ie.coverCount[c]--
		if ie.coverCount[c] == 0 {
			ie.coveredAny--
		}
	})
}

func (ie *IncrementalEvaluator) cover(p geom.Point, r float64) {
	ie.eval.visitClientsWithin(p, r, func(c int) {
		ie.coverCount[c]++
		if ie.coverCount[c] == 1 {
			ie.coveredAny++
		}
	})
}

// computeMetrics runs the connectivity pass over the live adjacency lists
// with Evaluator.Evaluate's component discovery order and giant tie-break.
func (ie *IncrementalEvaluator) computeMetrics() Metrics {
	e, n := ie.eval, len(ie.cur.Positions)
	labels := ie.labels
	for i := range labels {
		labels[i] = -1
	}
	sizes := ie.sizes[:0]
	queue := ie.queue[:0]
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		id := int32(len(sizes))
		labels[start] = id
		count := 1
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range ie.adj[v] {
				if labels[w] == -1 {
					labels[w] = id
					count++
					queue = append(queue, w)
				}
			}
		}
		sizes = append(sizes, count)
	}
	ie.sizes, ie.queue = sizes, queue

	giant, giantID := 0, int32(-1)
	for id, sz := range sizes {
		if sz > giant {
			giant, giantID = sz, int32(id)
		}
	}
	covered := ie.coveredAny
	if e.opts.Coverage == CoverGiantOnly {
		covered = ie.giantOnlyCovered(labels, giantID)
	}
	return ie.assemble(giant, len(sizes), covered)
}

// assemble builds the tracked solution's Metrics from its connectivity and
// coverage counts with Evaluator.Evaluate's fitness expression, so the
// floats match bit for bit. Every metrics path goes through it.
func (ie *IncrementalEvaluator) assemble(giant, components, covered int) Metrics {
	e, n := ie.eval, len(ie.cur.Positions)
	mClients := e.inst.NumClients()
	fitness := e.opts.Weights.Connectivity * float64(giant) / float64(n)
	if mClients > 0 {
		fitness += e.opts.Weights.Coverage * float64(covered) / float64(mClients)
	}
	return Metrics{
		GiantSize:  giant,
		Covered:    covered,
		Links:      ie.links,
		Components: components,
		Fitness:    fitness,
	}
}

// giantOnlyCovered counts clients covered from the giant component, scanning
// routers in index order like Evaluator.countCovered.
func (ie *IncrementalEvaluator) giantOnlyCovered(labels []int32, giantID int32) int {
	e := ie.eval
	if e.inst.NumClients() == 0 {
		return 0
	}
	ie.markEpoch++
	covered := 0
	for i, p := range ie.cur.Positions {
		if labels[i] != giantID {
			continue
		}
		e.visitClientsWithin(p, e.inst.Radii[i], func(c int) {
			if ie.clientMark[c] != ie.markEpoch {
				ie.clientMark[c] = ie.markEpoch
				covered++
			}
		})
	}
	return covered
}
