// Package metrics implements the paper's hardware-agnostic MPI-level
// locality metrics:
//
//   - rank distance / rank locality (Section 4.1.1): per source rank, the
//     smallest linear rank-ID distance d such that at least 90% of the
//     rank's point-to-point volume goes to partners within distance d;
//     locality is the reciprocal of the distance.
//   - selectivity (Section 4.1.2): per source rank, how many partners —
//     sorted by exchanged volume, largest first — are needed to cover 90%
//     of the rank's point-to-point volume.
//   - peers (Klenk et al.): the peak number of distinct point-to-point
//     destinations any rank addresses.
//   - dimensional rank locality (Section 5.1, Table 4): rank locality
//     recomputed after folding the linear rank IDs onto a 2D or 3D grid,
//     which reveals the dimensionality of the underlying problem.
//
// All metrics operate on the point-to-point communication matrix; per the
// paper, collectives on the global communicator are a uniform bias and are
// excluded here.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"netloc/internal/comm"
	"netloc/internal/parallel"
	"netloc/internal/stats"
)

// rankScratch holds the per-iteration buffers of the per-rank metric
// loops, pooled so a grid of thousands of ranks reuses a handful of
// buffers (one per concurrent worker) instead of allocating three slices
// per rank.
type rankScratch struct {
	dsts  []int
	vols  []float64
	dists []float64
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// Engine computes the per-rank metric loops on a configurable parallel
// runner. Per-rank results are written index-addressed and all
// floating-point reductions run sequentially in rank order afterwards,
// so an Engine with any runner produces bit-identical results to the
// sequential loop. The zero value computes sequentially; the
// package-level functions are shorthands for the zero Engine.
type Engine struct {
	// Run schedules the per-rank (and candidate-grid) loops.
	Run parallel.Runner
}

// DefaultCoverage is the traffic share the paper's quantization rules use.
const DefaultCoverage = 0.90

// ErrNoTraffic is returned when the matrix contains no point-to-point
// traffic at all (the paper reports N/A for such workloads, e.g. BigFFT).
var ErrNoTraffic = errors.New("metrics: no point-to-point traffic")

// CheckCoverage is the rule every q-coverage metric applies to its
// threshold: q must lie in (0,1], and NaN fails.
func CheckCoverage(q float64) error {
	if q <= 0 || q > 1 || math.IsNaN(q) {
		return fmt.Errorf("metrics: coverage %v outside (0,1]", q)
	}
	return nil
}

// Peers returns the peak number of distinct destinations any source rank
// addresses, and the per-rank destination counts.
func Peers(m *comm.Matrix) (peak int, perRank []int) {
	perRank = make([]int, m.Ranks())
	m.Each(func(k comm.Key, e comm.Entry) {
		perRank[k.Src]++
	})
	for _, c := range perRank {
		if c > peak {
			peak = c
		}
	}
	return peak, perRank
}

// PerRankDistance returns, for every source rank, the smallest linear rank
// distance covering the q-share of that rank's p2p volume; ranks without
// traffic get NaN.
func PerRankDistance(m *comm.Matrix, q float64) ([]float64, error) {
	return Engine{}.PerRankDistance(m, q)
}

// PerRankDistance is the per-rank distance loop, chunked over the
// engine's workers; see the package-level function.
func (e Engine) PerRankDistance(m *comm.Matrix, q float64) ([]float64, error) {
	if err := CheckCoverage(q); err != nil {
		return nil, err
	}
	out := make([]float64, m.Ranks())
	e.Run.ForEach(m.Ranks(), func(src int) {
		sc := rankScratchPool.Get().(*rankScratch)
		defer rankScratchPool.Put(sc)
		sc.dsts, sc.vols = m.AppendBySource(src, sc.dsts[:0], sc.vols[:0])
		if len(sc.dsts) == 0 {
			out[src] = math.NaN()
			return
		}
		sc.dists = sc.dists[:0]
		for _, d := range sc.dsts {
			sc.dists = append(sc.dists, math.Abs(float64(src-d)))
		}
		d90, err := stats.WeightedQuantileLEInPlace(sc.dists, sc.vols, q)
		if err != nil {
			out[src] = math.NaN()
			return
		}
		out[src] = d90
	})
	return out, nil
}

// RankDistance returns the mean (over communicating ranks) q-coverage rank
// distance — the paper's "Rank Distance (90%)" column of Table 3.
func RankDistance(m *comm.Matrix, q float64) (float64, error) {
	return Engine{}.RankDistance(m, q)
}

// RankDistance is the mean per-rank distance; see the package-level
// function.
func (e Engine) RankDistance(m *comm.Matrix, q float64) (float64, error) {
	per, err := e.PerRankDistance(m, q)
	if err != nil {
		return 0, err
	}
	return meanIgnoringNaN(per)
}

// RankLocality returns the rank locality in percent: 100 / RankDistance.
// A distance below one (only possible when a rank covers q of its traffic
// at distance 0, which cannot happen for distinct ranks) is clamped to 1.
func RankLocality(m *comm.Matrix, q float64) (float64, error) {
	return Engine{}.RankLocality(m, q)
}

// RankLocality is the reciprocal rank distance in percent; see the
// package-level function.
func (e Engine) RankLocality(m *comm.Matrix, q float64) (float64, error) {
	d, err := e.RankDistance(m, q)
	if err != nil {
		return 0, err
	}
	if d < 1 {
		d = 1
	}
	return 100 / d, nil
}

// PerRankSelectivity returns, for every source rank, how many partners
// (sorted by volume, descending) cover the q-share of the rank's volume;
// silent ranks get 0.
func PerRankSelectivity(m *comm.Matrix, q float64) ([]int, error) {
	return Engine{}.PerRankSelectivity(m, q)
}

// PerRankSelectivity is the per-rank partner-count loop, chunked over
// the engine's workers; see the package-level function.
func (e Engine) PerRankSelectivity(m *comm.Matrix, q float64) ([]int, error) {
	if err := CheckCoverage(q); err != nil {
		return nil, err
	}
	out := make([]int, m.Ranks())
	e.Run.ForEach(m.Ranks(), func(src int) {
		sc := rankScratchPool.Get().(*rankScratch)
		defer rankScratchPool.Put(sc)
		sc.dsts, sc.vols = m.AppendBySource(src, sc.dsts[:0], sc.vols[:0])
		out[src] = stats.CoverageCountInPlace(sc.vols, q)
	})
	return out, nil
}

// Selectivity returns the mean (over communicating ranks) q-coverage
// partner count — the paper's "Selectivity (90%)" column of Table 3.
func Selectivity(m *comm.Matrix, q float64) (float64, error) {
	return Engine{}.Selectivity(m, q)
}

// Selectivity is the mean per-rank partner count; see the package-level
// function.
func (e Engine) Selectivity(m *comm.Matrix, q float64) (float64, error) {
	per, err := e.PerRankSelectivity(m, q)
	if err != nil {
		return 0, err
	}
	var sum float64
	var n int
	for _, c := range per {
		if c > 0 {
			sum += float64(c)
			n++
		}
	}
	if n == 0 {
		return 0, ErrNoTraffic
	}
	return sum / float64(n), nil
}

// PartnerCurve returns the volumes a source rank sends to each partner,
// sorted descending — the series of the paper's Figure 1.
func PartnerCurve(m *comm.Matrix, src int) ([]float64, error) {
	if src < 0 || src >= m.Ranks() {
		return nil, fmt.Errorf("metrics: rank %d out of range [0,%d)", src, m.Ranks())
	}
	_, vols := m.BySource(src)
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	return vols, nil
}

// CumulativeCurve returns the mean cumulative traffic-share curve over all
// communicating ranks: entry i is the average share of a rank's volume
// covered by its i+1 largest partners. Ranks whose partner list is shorter
// than the longest contribute 1.0 beyond their end. This is the per-
// workload series of the paper's Figures 3 and 4; Selectivity is where the
// curve crosses the coverage threshold.
func CumulativeCurve(m *comm.Matrix) ([]float64, error) {
	var curves [][]float64
	maxLen := 0
	for src := 0; src < m.Ranks(); src++ {
		_, vols := m.BySource(src)
		c := stats.CumulativeShares(vols)
		if len(c) == 0 {
			continue
		}
		curves = append(curves, c)
		if len(c) > maxLen {
			maxLen = len(c)
		}
	}
	if len(curves) == 0 {
		return nil, ErrNoTraffic
	}
	out := make([]float64, maxLen)
	for _, c := range curves {
		for i := 0; i < maxLen; i++ {
			if i < len(c) {
				out[i] += c[i]
			} else {
				out[i] += 1
			}
		}
	}
	for i := range out {
		out[i] /= float64(len(curves))
	}
	return out, nil
}

func meanIgnoringNaN(xs []float64) (float64, error) {
	var sum float64
	var n int
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0, ErrNoTraffic
	}
	return sum / float64(n), nil
}
