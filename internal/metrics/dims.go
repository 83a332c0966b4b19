package metrics

import (
	"fmt"
	"math"

	"netloc/internal/comm"
	"netloc/internal/stats"
)

// DimResult is the outcome of a dimensional rank-locality analysis.
type DimResult struct {
	// Dims is the number of grid dimensions (1, 2, or 3).
	Dims int
	// Grid is the folding that achieved the best locality (length Dims,
	// fastest-varying dimension first).
	Grid []int
	// Distance is the mean q-coverage Manhattan distance on that grid.
	Distance float64
	// LocalityPct is 100 / Distance (clamped at 100).
	LocalityPct float64
}

// maxAspect bounds how skewed a candidate folding may be; beyond this the
// folding degenerates toward the 1D case and stops being informative.
const maxAspect = 8

// DimLocality folds the linear rank IDs onto candidate dims-dimensional
// grids (row-major, fastest dimension first) and returns the folding with
// the best (smallest) mean q-coverage Manhattan distance. This reproduces
// the paper's Table 4: a workload whose heavy partners are grid neighbors
// in k dimensions reaches ~100% locality exactly at k dimensions.
//
// Candidate grids are the ordered factorizations of the rank count with
// aspect ratio at most maxAspect; if none exists (e.g. prime rank counts),
// a near-balanced covering grid is used instead.
func DimLocality(m *comm.Matrix, dims int, q float64) (DimResult, error) {
	return Engine{}.DimLocality(m, dims, q)
}

// DimLocality sweeps the candidate grids on the engine's workers (each
// grid's per-rank loop also runs chunked); the winning folding is
// selected by a sequential scan in enumeration order, so any runner
// reproduces the sequential result exactly. See the package-level
// function.
func (e Engine) DimLocality(m *comm.Matrix, dims int, q float64) (DimResult, error) {
	if err := CheckCoverage(q); err != nil {
		return DimResult{}, err
	}
	if dims < 1 || dims > 3 {
		return DimResult{}, fmt.Errorf("metrics: dims must be 1..3, got %d", dims)
	}
	n := m.Ranks()
	grids := candidateGrids(n, dims)
	if len(grids) == 0 {
		return DimResult{}, fmt.Errorf("metrics: no candidate %dD grids for %d ranks", dims, n)
	}
	dists := make([]float64, len(grids))
	if err := e.Run.ForEachErr(len(grids), func(i int) error {
		d, err := e.meanGridDistance(m, grids[i], q)
		if err != nil {
			return err
		}
		dists[i] = d
		return nil
	}); err != nil {
		return DimResult{}, err
	}
	best := DimResult{Dims: dims, Distance: math.Inf(1)}
	found := false
	for i, g := range grids {
		if dists[i] < best.Distance {
			best.Distance = dists[i]
			best.Grid = g
			found = true
		}
	}
	if !found {
		return DimResult{}, ErrNoTraffic
	}
	dist := best.Distance
	if dist < 1 {
		dist = 1
	}
	best.LocalityPct = 100 / dist
	return best, nil
}

// meanGridDistance computes the mean per-rank q-coverage Manhattan distance
// under a row-major folding onto the grid. The per-rank distances are
// computed on the engine's workers into an index-addressed slice and
// reduced sequentially in rank order, keeping the floating-point sum
// identical to the sequential loop's.
func (e Engine) meanGridDistance(m *comm.Matrix, grid []int, q float64) (float64, error) {
	coords := func(id int) (c [3]int) {
		for d := 0; d < len(grid); d++ {
			c[d] = id % grid[d]
			id /= grid[d]
		}
		return c
	}
	per := make([]float64, m.Ranks())
	e.Run.ForEach(m.Ranks(), func(src int) {
		per[src] = math.NaN()
		buf := rankScratchPool.Get().(*rankScratch)
		defer rankScratchPool.Put(buf)
		buf.dsts, buf.vols = m.AppendBySource(src, buf.dsts[:0], buf.vols[:0])
		if len(buf.dsts) == 0 {
			return
		}
		sc := coords(src)
		buf.dists = buf.dists[:0]
		for _, dst := range buf.dsts {
			dc := coords(dst)
			man := 0
			for d := 0; d < len(grid); d++ {
				diff := sc[d] - dc[d]
				if diff < 0 {
					diff = -diff
				}
				man += diff
			}
			buf.dists = append(buf.dists, float64(man))
		}
		d90, err := stats.WeightedQuantileLEInPlace(buf.dists, buf.vols, q)
		if err != nil {
			return
		}
		per[src] = d90
	})
	var sum float64
	var cnt int
	for _, d := range per {
		if !math.IsNaN(d) {
			sum += d
			cnt++
		}
	}
	if cnt == 0 {
		return 0, ErrNoTraffic
	}
	return sum / float64(cnt), nil
}

// candidateGrids enumerates ordered factorizations of n into dims factors
// with bounded aspect ratio; falls back to a near-balanced covering grid
// when no exact factorization qualifies.
func candidateGrids(n, dims int) [][]int {
	if n <= 0 {
		return nil
	}
	if dims == 1 {
		return [][]int{{n}}
	}
	var out [][]int
	if dims == 2 {
		for a := 1; a <= n; a++ {
			if n%a != 0 {
				continue
			}
			b := n / a
			if aspectOK(a, b) {
				out = append(out, []int{a, b})
			}
		}
	} else {
		for a := 1; a <= n; a++ {
			if n%a != 0 {
				continue
			}
			rest := n / a
			for b := 1; b <= rest; b++ {
				if rest%b != 0 {
					continue
				}
				c := rest / b
				if aspectOK(a, b, c) {
					out = append(out, []int{a, b, c})
				}
			}
		}
	}
	if len(out) == 0 {
		out = append(out, coverGrid(n, dims))
	}
	return out
}

func aspectOK(dims ...int) bool {
	mn, mx := dims[0], dims[0]
	for _, d := range dims[1:] {
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
	}
	return mn > 0 && mx <= maxAspect*mn
}

// coverGrid returns a near-balanced dims-dimensional grid whose volume is
// at least n (used when n has no balanced factorization, e.g. primes).
func coverGrid(n, dims int) []int {
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dims))))
	g := make([]int, dims)
	for i := range g {
		g[i] = side
	}
	// Shrink trailing dimensions while the volume still covers n.
	for i := dims - 1; i >= 0; i-- {
		for g[i] > 1 {
			g[i]--
			vol := 1
			for _, v := range g {
				vol *= v
			}
			if vol < n {
				g[i]++
				break
			}
		}
	}
	return g
}
