package congest

import (
	"fmt"
	"math"

	"netloc/internal/mapping"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// DefaultGrowthPct is the makespan-growth threshold of the tolerance
// sweep when the caller passes zero: how far the makespan may stretch
// before the added latency counts as "no longer absorbed".
const DefaultGrowthPct = 5.0

// toleranceMaxDoublings bounds the exponential bracketing phase; the
// probe starts at one head-packet latency, so 2^24 of those is seconds
// per hop — far beyond anything a real interconnect could hide.
const toleranceMaxDoublings = 24

// toleranceBisections bounds the refinement phase: the bracket halves
// each step, so 12 steps pin the threshold to ~0.02% of the bracket.
const toleranceBisections = 12

// Tolerance is the result of a latency-tolerance sweep (the LLAMP
// question, arXiv 2404.14193): how much added per-hop latency a
// workload absorbs before its makespan grows past the threshold. Large
// values mean the workload's critical path hides the network; small
// values mean every added nanosecond surfaces in the runtime.
type Tolerance struct {
	// PerHopSeconds is the largest probed per-hop latency whose
	// makespan stayed within the growth threshold.
	PerHopSeconds float64 `json:"per_hop_seconds"`
	// GrowthPct is the threshold the sweep searched against.
	GrowthPct float64 `json:"growth_pct"`
	// BaseMakespan is the makespan with no added latency.
	BaseMakespan float64 `json:"base_makespan"`
	// Probes counts the simulations the search ran (base run included).
	Probes int `json:"probes"`
	// Saturated reports the bracketing phase hit its upper bound:
	// PerHopSeconds is then a lower bound, not a crossing point.
	Saturated bool `json:"saturated,omitempty"`
}

// LatencyTolerance binary-searches the added per-hop latency the
// workload absorbs on this topology under the options' routing policy
// before the makespan grows more than growthPct percent (zero means
// DefaultGrowthPct; negative, NaN and infinite thresholds are
// rejected). The search is deterministic: exponential bracketing from
// one head-packet latency, then bounded bisection, every probe
// replaying one prepared Wire.
func LatencyTolerance(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options, growthPct float64) (*Tolerance, error) {
	if growthPct == 0 {
		growthPct = DefaultGrowthPct
	}
	// !(x > 0) also catches NaN, which compares false to everything.
	if !(growthPct > 0) || math.IsInf(growthPct, 1) {
		return nil, fmt.Errorf("congest: invalid options: growth threshold %g%% (need finite, > 0)", growthPct)
	}
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	// Every probe replays the same messages; only the hop latency moves.
	w, err := simnet.Prepare(t, topo, mp)
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	tol := &Tolerance{GrowthPct: growthPct}
	makespan := func(extra float64) (float64, error) {
		o := opts
		o.ExtraHopLatency = extra
		s, err := simulate(w, topo, o)
		if err != nil {
			return 0, err
		}
		tol.Probes++
		return s.Makespan, nil
	}
	if tol.BaseMakespan, err = makespan(0); err != nil {
		return nil, err
	}
	threshold := tol.BaseMakespan * (1 + growthPct/100)

	// Bracket: double from one head-packet latency until the threshold
	// breaks (or the bound says the workload absorbs "anything").
	lo := 0.0
	hi := float64(opts.PacketBytes) / opts.BandwidthBytesPerSec
	broke := false
	for i := 0; i < toleranceMaxDoublings; i++ {
		m, err := makespan(hi)
		if err != nil {
			return nil, err
		}
		if m > threshold {
			broke = true
			break
		}
		lo = hi
		hi *= 2
	}
	if !broke {
		tol.PerHopSeconds = lo
		tol.Saturated = true
		return tol, nil
	}
	// Refine: bisect [lo, hi) — lo absorbed, hi broke.
	for i := 0; i < toleranceBisections; i++ {
		mid := lo + (hi-lo)/2
		m, err := makespan(mid)
		if err != nil {
			return nil, err
		}
		if m > threshold {
			hi = mid
		} else {
			lo = mid
		}
	}
	tol.PerHopSeconds = lo
	return tol, nil
}
