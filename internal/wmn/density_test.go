package wmn

import (
	"slices"
	"testing"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
)

// densityInstance: 64×64 area, clients concentrated in the top-left 16×16
// cell region.
func densityInstance() *Instance {
	return &Instance{
		Name: "density", Width: 64, Height: 64,
		Radii: []float64{1, 2, 3},
		Clients: []geom.Point{
			geom.Pt(2, 2), geom.Pt(3, 3), geom.Pt(5, 5), // cell (0,0)
			geom.Pt(40, 40), // one stray client
		},
	}
}

func TestDensityGridClientCounts(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCells() != 16 {
		t.Fatalf("cells = %d, want 16", d.NumCells())
	}
	cell00 := d.Grid().CellIndex(geom.Pt(2, 2))
	if d.ClientCount(cell00) != 3 {
		t.Errorf("corner cell clients = %d, want 3", d.ClientCount(cell00))
	}
	stray := d.Grid().CellIndex(geom.Pt(40, 40))
	if d.ClientCount(stray) != 1 {
		t.Errorf("stray cell clients = %d, want 1", d.ClientCount(stray))
	}
	total := 0
	for c := 0; c < d.NumCells(); c++ {
		total += d.ClientCount(c)
	}
	if total != in.NumClients() {
		t.Errorf("client counts sum to %d, want %d", total, in.NumClients())
	}
}

func TestDensityGridCountRouters(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	sol := Solution{Positions: []geom.Point{geom.Pt(1, 1), geom.Pt(2, 1), geom.Pt(50, 50)}}
	d.CountRouters(sol)
	cell00 := d.Grid().CellIndex(geom.Pt(1, 1))
	if d.RouterCount(cell00) != 2 {
		t.Errorf("corner cell routers = %d, want 2", d.RouterCount(cell00))
	}
	// Recounting a different solution replaces, not accumulates.
	d.CountRouters(Solution{Positions: []geom.Point{geom.Pt(50, 50), geom.Pt(50, 51), geom.Pt(50, 52)}})
	if d.RouterCount(cell00) != 0 {
		t.Errorf("counts not reset: corner cell routers = %d", d.RouterCount(cell00))
	}
}

func TestDensityRanking(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	ranked := d.RankCells(1, 0)
	if len(ranked) != 16 {
		t.Fatalf("ranked %d cells", len(ranked))
	}
	if d.ClientCount(ranked[0]) != 3 {
		t.Errorf("top-ranked cell has %d clients, want 3", d.ClientCount(ranked[0]))
	}
	// Scores must be non-increasing down the ranking.
	for i := 1; i < len(ranked); i++ {
		if d.Score(ranked[i], 1, 0) > d.Score(ranked[i-1], 1, 0) {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

func TestDensityRankingDeterministicTies(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := d.RankCells(1, 0.25)
	b := d.RankCells(1, 0.25)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranking unstable at %d", i)
		}
	}
}

func TestDensestAndSparsestCells(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	dense := d.DensestCells(2, 1, 0, nil)
	if len(dense) != 2 {
		t.Fatalf("DensestCells(2) returned %d cells", len(dense))
	}
	if d.ClientCount(dense[0]) < d.ClientCount(dense[1]) {
		t.Error("densest cells out of order")
	}
	sparse := d.SparsestCells(3, 1, 0, nil, nil)
	if len(sparse) != 3 {
		t.Fatalf("SparsestCells(3) returned %d cells", len(sparse))
	}
	for _, c := range sparse {
		if d.ClientCount(c) != 0 {
			t.Errorf("sparse cell %d has %d clients", c, d.ClientCount(c))
		}
	}
}

func TestSparsestCellsFilter(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	sol := Solution{Positions: []geom.Point{geom.Pt(60, 60), geom.Pt(60, 61), geom.Pt(1, 1)}}
	d.CountRouters(sol)
	withRouters := d.SparsestCells(5, 1, 0, func(cell int) bool {
		return d.RouterCount(cell) > 0
	}, nil)
	if len(withRouters) != 2 {
		t.Fatalf("filtered sparse cells = %d, want 2 (two occupied cells)", len(withRouters))
	}
	for _, c := range withRouters {
		if d.RouterCount(c) == 0 {
			t.Errorf("filter violated for cell %d", c)
		}
	}
}

func TestRoutersIn(t *testing.T) {
	in := densityInstance()
	d, err := NewDensityGrid(in, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	sol := Solution{Positions: []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(60, 60)}}
	d.CountRouters(sol)
	cell := d.Grid().CellIndex(geom.Pt(1, 1))
	got := slices.Collect(d.RoutersIn(cell))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("RoutersIn = %v, want [0 1]", got)
	}
}

func TestDensityGridRejectsBadCells(t *testing.T) {
	in := densityInstance()
	if _, err := NewDensityGrid(in, 0, 16); err == nil {
		t.Error("zero cell width accepted")
	}
	if _, err := NewDensityGrid(in, -2, -2); err == nil {
		t.Error("negative cell size accepted")
	}
}

// FuzzDensityGridTrack drives the tracked router state through a random
// walk — moves inside a cell, moves across cells, no-op rewrites, points
// clamped at the border, multi-router exchanges and wholesale replacement
// with a solution of any size — and checks after every step that counts,
// members and the K-cell selections equal a from-scratch recount and the
// sort-based RankCells ordering. ops picks the step kinds; seed picks
// the cell size and the coordinates.
func FuzzDensityGridTrack(f *testing.F) {
	in, err := Generate(DefaultGenConfig())
	if err != nil {
		f.Fatal(err)
	}
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 1, 0, 3, 5, 2, 4, byte(seed)})
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		r := rng.New(seed)
		sizes := [][2]float64{{16, 16}, {8, 16}, {10, 20}, {30, 7}, {128, 128}}
		size := sizes[r.IntN(len(sizes))]
		d, err := NewDensityGrid(in, size[0], size[1])
		if err != nil {
			t.Fatal(err)
		}
		g := d.Grid()
		sol := randomTestSolution(in, r)
		checkTracked(t, d, sol, -1)
		for step, op := range ops {
			n := len(sol.Positions)
			switch op % 6 {
			case 0: // move inside the router's current cell
				if n > 0 {
					i := r.IntN(n)
					cell := g.Cell(g.CellIndex(sol.Positions[i]))
					sol.Positions[i] = geom.Pt(cell.Min.X+r.Float64()*cell.Width(), cell.Min.Y+r.Float64()*cell.Height())
				}
			case 1: // move anywhere, usually to another cell
				if n > 0 {
					sol.Positions[r.IntN(n)] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
				}
			case 2: // rewrite the same positions into a fresh slice
				sol = sol.Clone()
			case 3: // move outside the area: the grid clamps to a border cell
				if n > 0 {
					sol.Positions[r.IntN(n)] = geom.Pt((r.Float64()*3-1)*in.Width, (r.Float64()*3-1)*in.Height)
				}
			case 4: // wholesale replacement, possibly with another router count
				sol = NewSolution(r.IntN(2 * in.NumRouters()))
				for i := range sol.Positions {
					sol.Positions[i] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
				}
			case 5: // exchange two routers' positions, as the swap movement does
				if n > 0 {
					i, j := r.IntN(n), r.IntN(n)
					sol.Positions[i], sol.Positions[j] = sol.Positions[j], sol.Positions[i]
				}
			}
			checkTracked(t, d, sol, step)
		}
	})
}

// checkTracked counts sol into d and compares the tracked state with a
// from-scratch recount and the selections with the RankCells ordering.
func checkTracked(t *testing.T, d *DensityGrid, sol Solution, step int) {
	t.Helper()
	d.CountRouters(sol)
	members := make([][]int, d.NumCells())
	for i, p := range sol.Positions {
		c := d.Grid().CellIndex(p)
		members[c] = append(members[c], i)
	}
	for c := range members {
		if got := d.RouterCount(c); got != len(members[c]) {
			t.Fatalf("step %d: cell %d counts %d routers, recount %d", step, c, got, len(members[c]))
		}
		if got := slices.Collect(d.RoutersIn(c)); !slices.Equal(got, members[c]) {
			t.Fatalf("step %d: cell %d members %v, recount %v", step, c, got, members[c])
		}
	}
	var buf []int
	for _, w := range [][2]float64{{1, 0.25}, {1, 0}, {0.5, 1}, {0, 1}, {1, -0.5}} {
		ranked := d.RankCells(w[0], w[1])
		backwards := slices.Clone(ranked)
		slices.Reverse(backwards)
		filters := []func(cell int) bool{
			nil,
			// The swap movement's filter: occupied, and not the dense cell.
			func(cell int) bool { return cell != ranked[0] && d.RouterCount(cell) > 0 },
		}
		for _, k := range []int{0, 1, 3, 4, 7, len(ranked), len(ranked) + 2} {
			buf = d.DensestCells(k, w[0], w[1], buf)
			if want := firstK(ranked, k, nil); !slices.Equal(buf, want) {
				t.Fatalf("step %d: DensestCells(%d, %v) = %v, RankCells prefix %v", step, k, w, buf, want)
			}
			for fi, filter := range filters {
				buf = d.SparsestCells(k, w[0], w[1], filter, buf)
				if want := firstK(backwards, k, filter); !slices.Equal(buf, want) {
					t.Fatalf("step %d: SparsestCells(%d, %v, filter %d) = %v, reversed RankCells %v", step, k, w, fi, buf, want)
				}
			}
		}
	}
}

// firstK returns the first k cells of order that pass the filter (nil
// passes all).
func firstK(order []int, k int, filter func(cell int) bool) []int {
	var out []int
	for _, c := range order {
		if len(out) == k {
			break
		}
		if filter == nil || filter(c) {
			out = append(out, c)
		}
	}
	return out
}
