package workloads

import (
	"fmt"
	"math"
	"sort"

	"netloc/internal/trace"
)

// ScaleAt returns a calibration row for an arbitrary rank count: the
// published Table 1 row when the count is one of the app's configured
// scales, otherwise a power-law extrapolation of volume and throughput
// over the configured scales (communication volume and rate of these
// mini-apps follow V ∝ ranks^b remarkably well, which is how the study's
// own Table 1 columns scale). Extrapolation needs at least two configured
// scales and keeps the p2p/collective split of the nearest configured
// scale.
func (a *App) ScaleAt(ranks int) (Scale, error) {
	if ranks <= 0 {
		return Scale{}, fmt.Errorf("workloads: non-positive rank count %d", ranks)
	}
	if s, err := a.ScaleFor(ranks); err == nil {
		return s, nil
	}
	if len(a.Scales) < 2 {
		return Scale{}, fmt.Errorf("workloads: %s has a single configured scale; cannot extrapolate to %d ranks", a.Name, ranks)
	}
	volMB, err := a.fitPowerLaw(ranks, func(s Scale) float64 { return s.VolMB })
	if err != nil {
		return Scale{}, err
	}
	rate, err := a.fitPowerLaw(ranks, func(s Scale) float64 { return s.RateMBps })
	if err != nil {
		return Scale{}, err
	}
	return Scale{
		Ranks:    ranks,
		VolMB:    volMB,
		RateMBps: rate,
		P2PPct:   a.nearestScale(ranks).P2PPct,
	}, nil
}

// fitPowerLaw least-squares fits log(metric) = a + b·log(ranks) over the
// configured scales and evaluates it at the requested rank count.
func (a *App) fitPowerLaw(ranks int, metric func(Scale) float64) (float64, error) {
	var sx, sy, sxx, sxy float64
	n := 0
	for _, s := range a.Scales {
		v := metric(s)
		if v <= 0 {
			return 0, fmt.Errorf("workloads: %s has non-positive metric at %d ranks", a.Name, s.Ranks)
		}
		x := math.Log(float64(s.Ranks))
		y := math.Log(v)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("workloads: %s scales are degenerate for fitting", a.Name)
	}
	b := (float64(n)*sxy - sx*sy) / den
	c := (sy - b*sx) / float64(n)
	return math.Exp(c + b*math.Log(float64(ranks))), nil
}

// nearestScale returns the configured scale whose rank count is closest in
// log space.
func (a *App) nearestScale(ranks int) Scale {
	scales := append([]Scale(nil), a.Scales...)
	sort.Slice(scales, func(i, j int) bool { return scales[i].Ranks < scales[j].Ranks })
	best := scales[0]
	bestDist := math.Inf(1)
	lr := math.Log(float64(ranks))
	for _, s := range scales {
		d := math.Abs(math.Log(float64(s.Ranks)) - lr)
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// GenerateAt produces a synthetic trace at an arbitrary rank count using
// ScaleAt calibration: StreamAt's events, collected.
func (a *App) GenerateAt(ranks int) (*trace.Trace, error) {
	s, err := a.StreamAt(ranks)
	if err != nil {
		return nil, err
	}
	return trace.Collect(s)
}

// StreamAt is Stream at an arbitrary rank count, using ScaleAt
// calibration. The rank count must still fit the app's structural
// constraints (e.g. the 3D apps need a near-cubic factorization).
func (a *App) StreamAt(ranks int) (trace.Source, error) {
	s, err := a.ScaleAt(ranks)
	if err != nil {
		return nil, err
	}
	return a.open(s)
}
