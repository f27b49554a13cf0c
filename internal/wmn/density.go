package wmn

import (
	"fmt"
	"iter"
	"sort"

	"meshplace/internal/geom"
)

// DensityGrid partitions the deployment area into cells and counts clients
// and routers per cell. The HotSpot placement method ranks cells by client
// density (§3), and the swap movement of the neighborhood search locates
// its "most dense" and "most sparse" Hg×Wg areas on it (Algorithm 3).
//
// Client counts are fixed per instance. Router state is tracked: the grid
// keeps a snapshot of the positions CountRouters last saw, each router's
// cell, and each cell's members, so a later CountRouters only moves the
// routers whose positions changed. After it is built, the grid allocates
// nothing, and its tracked state always equals a recount from scratch.
type DensityGrid struct {
	grid    geom.Grid
	clients []int
	routers []int // routers per cell

	// Tracked router state, allocated by the first CountRouters call so
	// that grids which only rank clients (HotSpot) never pay for it.
	pos  []geom.Point // positions as of the last CountRouters call
	cell []int        // cell of each router
	head []int        // first (lowest-index) member of each cell, -1 if none
	next []int        // next-higher member of the router's cell, -1 at the end
}

// NewDensityGrid builds a grid of cellW×cellH cells over the instance area
// and counts the instance's clients into it.
func NewDensityGrid(in *Instance, cellW, cellH float64) (*DensityGrid, error) {
	grid, err := geom.NewGrid(in.Area(), cellW, cellH)
	if err != nil {
		return nil, fmt.Errorf("wmn: density grid: %w", err)
	}
	d := &DensityGrid{
		grid:    grid,
		clients: make([]int, grid.NumCells()),
		routers: make([]int, grid.NumCells()),
	}
	for _, c := range in.Clients {
		d.clients[grid.CellIndex(c)]++
	}
	return d, nil
}

// Grid exposes the underlying cell geometry.
func (d *DensityGrid) Grid() geom.Grid { return d.grid }

// NumCells returns the number of cells.
func (d *DensityGrid) NumCells() int { return d.grid.NumCells() }

// ClientCount returns the number of clients in the cell.
func (d *DensityGrid) ClientCount(cell int) int { return d.clients[cell] }

// RouterCount returns the number of routers counted into the cell by the
// last CountRouters call.
func (d *DensityGrid) RouterCount(cell int) int { return d.routers[cell] }

// CountRouters makes the grid's router counts and members describe the
// solution, replacing whatever an earlier call counted. The first call, or
// a call with a different router count, counts every router; later calls
// re-cell only the routers whose positions differ from the previous call's.
func (d *DensityGrid) CountRouters(sol Solution) {
	if len(sol.Positions) != len(d.pos) {
		d.rebuild(sol)
		return
	}
	for i, p := range sol.Positions {
		if p == d.pos[i] {
			continue
		}
		d.pos[i] = p
		if c := d.grid.CellIndex(p); c != d.cell[i] {
			d.unlink(i)
			d.cell[i] = c
			d.link(i)
		}
	}
}

// rebuild counts every router of the solution from scratch.
func (d *DensityGrid) rebuild(sol Solution) {
	n := len(sol.Positions)
	d.pos = append(d.pos[:0], sol.Positions...)
	d.cell = resize(d.cell, n)
	d.next = resize(d.next, n)
	if d.head == nil {
		d.head = make([]int, d.NumCells())
	}
	for c := range d.head {
		d.head[c] = -1
		d.routers[c] = 0
	}
	// Pushing in descending index order leaves every list ascending.
	for i := n - 1; i >= 0; i-- {
		c := d.grid.CellIndex(sol.Positions[i])
		d.cell[i] = c
		d.next[i] = d.head[c]
		d.head[c] = i
		d.routers[c]++
	}
}

func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// link inserts router i into its cell's member list, keeping it ascending.
func (d *DensityGrid) link(i int) {
	c := d.cell[i]
	d.routers[c]++
	prev, j := -1, d.head[c]
	for j >= 0 && j < i {
		prev, j = j, d.next[j]
	}
	d.next[i] = j
	if prev < 0 {
		d.head[c] = i
	} else {
		d.next[prev] = i
	}
}

// unlink removes router i from its cell's member list.
func (d *DensityGrid) unlink(i int) {
	c := d.cell[i]
	d.routers[c]--
	if d.head[c] == i {
		d.head[c] = d.next[i]
		return
	}
	j := d.head[c]
	for d.next[j] != i {
		j = d.next[j]
	}
	d.next[j] = d.next[i]
}

// RoutersIn yields the indices of the routers in the cell, ascending, as
// counted by the last CountRouters call.
func (d *DensityGrid) RoutersIn(cell int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if d.head == nil {
			return // no CountRouters call yet
		}
		for i := d.head[cell]; i >= 0; i = d.next[i] {
			if !yield(i) {
				return
			}
		}
	}
}

// Score returns the weighted density of a cell. HotSpot uses pure client
// weight; the swap movement mixes clients and routers so that "dense"
// reflects both demand and current supply.
func (d *DensityGrid) Score(cell int, clientWeight, routerWeight float64) float64 {
	return clientWeight*float64(d.clients[cell]) + routerWeight*float64(d.routers[cell])
}

// RankCells returns all cell indices ordered by descending score. Ties
// break toward the lower cell index, keeping the ranking deterministic.
func (d *DensityGrid) RankCells(clientWeight, routerWeight float64) []int {
	order := make([]int, d.NumCells())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa := d.Score(order[a], clientWeight, routerWeight)
		sb := d.Score(order[b], clientWeight, routerWeight)
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order
}

// DensestCells writes into buf the first k cells of the RankCells order —
// score descending, ties toward the lower index — and returns them. It
// selects them in one pass over the cells without sorting.
func (d *DensityGrid) DensestCells(k int, clientWeight, routerWeight float64, buf []int) []int {
	out := buf[:0]
	if k <= 0 {
		return out
	}
	for c := range d.clients {
		s := d.Score(c, clientWeight, routerWeight)
		// Cells arrive in ascending index order, so c ranks after every
		// kept cell of equal score.
		if len(out) == k && s <= d.Score(out[k-1], clientWeight, routerWeight) {
			continue
		}
		if len(out) < k {
			out = append(out, c)
		}
		j := len(out) - 1
		for ; j > 0 && d.Score(out[j-1], clientWeight, routerWeight) < s; j-- {
			out[j] = out[j-1]
		}
		out[j] = c
	}
	return out
}

// SparsestCells writes into buf the first k cells that satisfy the filter
// (nil accepts all cells) when the RankCells order is read backwards —
// score ascending, ties toward the higher index — and returns them. The
// swap movement uses the filter to restrict "sparse" to cells that still
// hold a router to take away. It selects them in one pass without sorting.
func (d *DensityGrid) SparsestCells(k int, clientWeight, routerWeight float64, filter func(cell int) bool, buf []int) []int {
	out := buf[:0]
	if k <= 0 {
		return out
	}
	for c := range d.clients {
		if filter != nil && !filter(c) {
			continue
		}
		s := d.Score(c, clientWeight, routerWeight)
		// Cells arrive in ascending index order, so c ranks before every
		// kept cell of equal score.
		if len(out) == k && s > d.Score(out[k-1], clientWeight, routerWeight) {
			continue
		}
		if len(out) < k {
			out = append(out, c)
		}
		j := len(out) - 1
		for ; j > 0 && d.Score(out[j-1], clientWeight, routerWeight) >= s; j-- {
			out[j] = out[j-1]
		}
		out[j] = c
	}
	return out
}

// CellRect returns the rectangle of the given cell.
func (d *DensityGrid) CellRect(cell int) geom.Rect { return d.grid.Cell(cell) }
