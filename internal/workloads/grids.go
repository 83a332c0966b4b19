package workloads

import (
	"fmt"
	"sort"
)

// grid3 is a 3D domain decomposition with x the fastest-varying dimension
// in the rank linearization (row-major), matching how the mini-apps number
// their ranks.
type grid3 struct {
	x, y, z int
}

// factor3 returns a near-cubic exact factorization of n (x >= y >= z,
// ordered so the largest dimension varies fastest), preferring balanced
// shapes. It fails when n has no factorization with aspect ratio <= 4.
func factor3(n int) (grid3, error) {
	best := grid3{}
	bestSpread := -1
	for z := 1; z*z*z <= n; z++ {
		if n%z != 0 {
			continue
		}
		rest := n / z
		for y := z; y*y <= rest; y++ {
			if rest%y != 0 {
				continue
			}
			x := rest / y
			if x > 4*z {
				continue
			}
			spread := x - z
			if bestSpread == -1 || spread < bestSpread {
				best = grid3{x: x, y: y, z: z}
				bestSpread = spread
			}
		}
	}
	if bestSpread == -1 {
		return grid3{}, fmt.Errorf("workloads: no near-cubic factorization of %d", n)
	}
	return best, nil
}

func (g grid3) ranks() int { return g.x * g.y * g.z }

func (g grid3) id(cx, cy, cz int) int { return (cz*g.y+cy)*g.x + cx }

func (g grid3) coords(id int) (cx, cy, cz int) {
	cx = id % g.x
	cy = (id / g.x) % g.y
	cz = id / (g.x * g.y)
	return
}

func (g grid3) inBounds(cx, cy, cz int) bool {
	return cx >= 0 && cx < g.x && cy >= 0 && cy < g.y && cz >= 0 && cz < g.z
}

// stencilWeights describe the relative per-direction volume of a halo
// exchange: faces carry whole ghost planes, edges ghost pencils, corners
// single ghost cells.
type stencilWeights struct {
	face, edge, corner float64
}

// eachStencilNeighbor calls fn for every in-bounds neighbor of the rank at
// offset stride in a full 27-point neighborhood, passing the neighbor rank
// and the direction order (1 face, 2 edge, 3 corner).
func (g grid3) eachStencilNeighbor(id, stride int, fn func(nb, order int)) {
	cx, cy, cz := g.coords(id)
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				nx, ny, nz := cx+dx*stride, cy+dy*stride, cz+dz*stride
				if !g.inBounds(nx, ny, nz) {
					continue
				}
				order := absInt(dx) + absInt(dy) + absInt(dz)
				fn(g.id(nx, ny, nz), order)
			}
		}
	}
}

// addStencil adds a full 27-point halo exchange at the given stride for
// every rank whose coordinates are multiples of the stride (the active set
// of a multigrid level). Weights select the per-order volumes; msgs is the
// message count per pair (iterations).
func addStencil(sp *spec, g grid3, stride int, w stencilWeights, msgs int) {
	for id := 0; id < g.ranks(); id++ {
		cx, cy, cz := g.coords(id)
		if cx%stride != 0 || cy%stride != 0 || cz%stride != 0 {
			continue
		}
		g.eachStencilNeighbor(id, stride, func(nb, order int) {
			var weight float64
			switch order {
			case 1:
				weight = w.face
			case 2:
				weight = w.edge
			default:
				weight = w.corner
			}
			sp.send(id, nb, weight, msgs)
		})
	}
}

// grid2 is a 2D decomposition (x fastest).
type grid2 struct {
	x, y int
}

// factor2 returns the most balanced exact 2D factorization of n with the
// smaller factor first in x.
func factor2(n int) (grid2, error) {
	for y := intSqrt(n); y >= 1; y-- {
		if n%y == 0 {
			return grid2{x: n / y, y: y}, nil
		}
	}
	return grid2{}, fmt.Errorf("workloads: cannot factor %d", n)
}

func (g grid2) ranks() int                 { return g.x * g.y }
func (g grid2) id(cx, cy int) int          { return cy*g.x + cx }
func (g grid2) coords(id int) (cx, cy int) { return id % g.x, id / g.x }
func (g grid2) inBounds(cx, cy int) bool {
	return cx >= 0 && cx < g.x && cy >= 0 && cy < g.y
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// xorshift is a tiny deterministic PRNG for the irregular workloads (AMR),
// independent of math/rand so generated traces are stable across Go
// versions.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	x := xorshift(seed)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// intn returns a deterministic value in [0, n).
func (x *xorshift) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(x.next() % uint64(n))
}

// mortonOrder returns a rank numbering of the grid's cells following the
// Morton (Z-order) space-filling curve: cells are sorted by their
// interleaved-bit key and ranks assigned in that order. Boxlib-family
// codes distribute blocks to ranks along such curves rather than
// row-major, which spreads grid neighbors across rank IDs — visible in
// the paper's Table 3 as the Boxlib apps' large rank distances next to
// their small selectivities. The returned slice maps row-major cell index
// to rank.
func mortonOrder(g grid3) []int {
	type cell struct{ idx, key int }
	cells := make([]cell, 0, g.ranks())
	for z := 0; z < g.z; z++ {
		for y := 0; y < g.y; y++ {
			for x := 0; x < g.x; x++ {
				key := 0
				for b := 0; b < 10; b++ {
					key |= ((x >> b) & 1) << (3 * b)
					key |= ((y >> b) & 1) << (3*b + 1)
					key |= ((z >> b) & 1) << (3*b + 2)
				}
				cells = append(cells, cell{idx: g.id(x, y, z), key: key})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key < cells[j].key })
	rankOf := make([]int, g.ranks())
	for r, c := range cells {
		rankOf[c.idx] = r
	}
	return rankOf
}
