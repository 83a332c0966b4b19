package metrics

import (
	"testing"

	"netloc/internal/comm"
)

// stencil3D builds a matrix of 27-point-stencil traffic on an x*y*z grid, faces
// dominating (weight 400) over edges (10) and corners (1).
func stencil3D(t *testing.T, x, y, z int) *comm.Matrix {
	t.Helper()
	n := x * y * z
	b := newBuilder(t, n)
	id := func(cx, cy, cz int) int { return (cz*y+cy)*x + cx }
	for cz := 0; cz < z; cz++ {
		for cy := 0; cy < y; cy++ {
			for cx := 0; cx < x; cx++ {
				src := id(cx, cy, cz)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							nx, ny, nz := cx+dx, cy+dy, cz+dz
							if nx < 0 || nx >= x || ny < 0 || ny >= y || nz < 0 || nz >= z {
								continue
							}
							order := abs(dx) + abs(dy) + abs(dz)
							w := uint64(1)
							switch order {
							case 1:
								w = 400
							case 2:
								w = 10
							}
							add(t, b, src, id(nx, ny, nz), w*1000)
						}
					}
				}
			}
		}
	}
	return b.Matrix()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// grid2D builds a matrix of 5-point-stencil traffic on an x*y grid.
func grid2D(t *testing.T, x, y int) *comm.Matrix {
	t.Helper()
	b := newBuilder(t, x*y)
	id := func(cx, cy int) int { return cy*x + cx }
	for cy := 0; cy < y; cy++ {
		for cx := 0; cx < x; cx++ {
			src := id(cx, cy)
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || nx >= x || ny < 0 || ny >= y {
					continue
				}
				add(t, b, src, id(nx, ny), 1000)
			}
		}
	}
	return b.Matrix()
}

func TestDimLocality3DStencilPeaksAt3D(t *testing.T) {
	// A 4x4x4 27-point stencil: 3D locality should be (near) 100%, and
	// strictly better than 2D, which is better than 1D.
	m := stencil3D(t, 4, 4, 4)
	r1, err := DimLocality(m, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := DimLocality(m, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := DimLocality(m, 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !(r3.LocalityPct > r2.LocalityPct && r2.LocalityPct > r1.LocalityPct) {
		t.Fatalf("locality not increasing with dims: 1D=%v 2D=%v 3D=%v",
			r1.LocalityPct, r2.LocalityPct, r3.LocalityPct)
	}
	// Faces carry ~95% of each rank's volume at Manhattan distance 1, so
	// the 3D fold reaches 100%.
	if r3.LocalityPct != 100 {
		t.Fatalf("3D locality = %v, want 100", r3.LocalityPct)
	}
	if r3.Grid[0]*r3.Grid[1]*r3.Grid[2] != 64 {
		t.Fatalf("3D grid = %v", r3.Grid)
	}
}

func TestDimLocality2DStencilPeaksAt2D(t *testing.T) {
	// PARTISN-style 12x14 sweep grid: 2D locality = 100%.
	m := grid2D(t, 12, 14)
	r2, err := DimLocality(m, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r2.LocalityPct != 100 {
		t.Fatalf("2D locality = %v (grid %v), want 100", r2.LocalityPct, r2.Grid)
	}
	// The best 2D grid should be the natural 12x14 (either orientation).
	if !(r2.Grid[0] == 12 && r2.Grid[1] == 14) {
		t.Fatalf("best grid = %v, want [12 14]", r2.Grid)
	}
	// 3D folding cannot beat 100% but also should not crash; and 1D is
	// far worse.
	r1, err := DimLocality(m, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r1.LocalityPct >= r2.LocalityPct {
		t.Fatalf("1D %v >= 2D %v", r1.LocalityPct, r2.LocalityPct)
	}
}

func TestDimLocality1DMatchesRankDistance(t *testing.T) {
	b := newBuilder(t, 16)
	add(t, b, 0, 3, 100)
	add(t, b, 7, 12, 100)
	m := b.Matrix()
	r1, err := DimLocality(m, 1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Distance != d {
		t.Fatalf("1D distance %v != rank distance %v", r1.Distance, d)
	}
	if len(r1.Grid) != 1 || r1.Grid[0] != 16 {
		t.Fatalf("1D grid = %v", r1.Grid)
	}
}

func TestDimLocalityValidation(t *testing.T) {
	b := newBuilder(t, 8)
	add(t, b, 0, 1, 1)
	m := b.Matrix()
	for _, dims := range []int{0, 4, -1} {
		if _, err := DimLocality(m, dims, 0.9); err == nil {
			t.Errorf("dims=%d should fail", dims)
		}
	}
}

func TestDimLocalityNoTraffic(t *testing.T) {
	b := newBuilder(t, 8)
	m := b.Matrix()
	if _, err := DimLocality(m, 2, 0.9); err != ErrNoTraffic {
		t.Fatalf("err = %v, want ErrNoTraffic", err)
	}
}

func TestDimLocalityPrimeRankCountUsesCoverGrid(t *testing.T) {
	// 17 is prime: no balanced factorization; cover grid must kick in.
	b := newBuilder(t, 17)
	add(t, b, 0, 1, 100)
	m := b.Matrix()
	r2, err := DimLocality(m, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Grid) != 2 || r2.Grid[0]*r2.Grid[1] < 17 {
		t.Fatalf("cover grid = %v", r2.Grid)
	}
}

func TestCandidateGrids(t *testing.T) {
	g2 := candidateGrids(12, 2)
	// Factor pairs of 12 with aspect <= 8: (2,6),(3,4),(4,3),(6,2) and
	// possibly (12,1)? aspect 12 > 8, excluded. (1,12) excluded.
	want := map[[2]int]bool{{2, 6}: true, {3, 4}: true, {4, 3}: true, {6, 2}: true}
	if len(g2) != len(want) {
		t.Fatalf("candidateGrids(12,2) = %v", g2)
	}
	for _, g := range g2 {
		if !want[[2]int{g[0], g[1]}] {
			t.Fatalf("unexpected grid %v", g)
		}
	}
	g1 := candidateGrids(7, 1)
	if len(g1) != 1 || g1[0][0] != 7 {
		t.Fatalf("candidateGrids(7,1) = %v", g1)
	}
	if got := candidateGrids(0, 2); got != nil {
		t.Fatalf("candidateGrids(0,2) = %v", got)
	}
}

func TestCoverGrid(t *testing.T) {
	for _, c := range []struct {
		n, dims int
	}{{17, 2}, {7, 3}, {100, 2}, {1, 3}} {
		g := coverGrid(c.n, c.dims)
		if len(g) != c.dims {
			t.Fatalf("coverGrid(%d,%d) = %v", c.n, c.dims, g)
		}
		vol := 1
		for _, v := range g {
			vol *= v
		}
		if vol < c.n {
			t.Fatalf("coverGrid(%d,%d) volume %d < n", c.n, c.dims, vol)
		}
	}
}

func TestAspectOK(t *testing.T) {
	if !aspectOK(3, 4) || !aspectOK(1, 8) || aspectOK(1, 9) || aspectOK(0, 4) {
		t.Fatal("aspectOK wrong")
	}
	if !aspectOK(2, 4, 8) || aspectOK(1, 2, 9) {
		t.Fatal("aspectOK 3D wrong")
	}
}
