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
// one head-packet latency, then bounded bisection. The trace is
// prepared once and its pairs routed once, and every probe is a
// makespan-only replay.
//
// The bisection assumes the makespan grows monotonically with the added
// latency. It does not: FIFO contention reorders messages, and on
// BigFFT/100 the makespan drops as latency grows on every family, under
// every policy but ECMP on the dragonfly. Callers rely on a weaker
// property: every latency up to PerHopSeconds keeps the makespan within
// the threshold. It is tested for the minimal policy, the only one the
// congestion study sweeps. Under UGAL it fails on BigFFT/100: on the
// dragonfly, 3.1% of the reported per-hop latency already grows the
// makespan by 5.47%, and on the torus 96.4% of it grows the makespan by
// 5.01%. A UGAL result is therefore where the search crossed the
// threshold, not a bound below which the threshold holds.
func LatencyTolerance(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options, growthPct float64) (*Tolerance, error) {
	w, err := simnet.Prepare(t)
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	return LatencyToleranceWire(w, topo, mp, opts, growthPct)
}

// LatencyToleranceWire is LatencyTolerance over a prepared Wire.
func LatencyToleranceWire(w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, opts Options, growthPct float64) (*Tolerance, error) {
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
	// Every probe replays the same routed messages; only the hop latency
	// moves, and a probe reads nothing but the makespan.
	r, err := newReplay(w, topo, mp, opts)
	if err != nil {
		return nil, err
	}
	tol := &Tolerance{GrowthPct: growthPct}
	makespan := func(extra float64) float64 {
		tol.Probes++
		return r.makespan(extra)
	}
	tol.BaseMakespan = makespan(0)
	threshold := tol.BaseMakespan * (1 + growthPct/100)

	// Bracket: double from one head-packet latency until the threshold
	// breaks (or the bound says the workload absorbs "anything").
	lo := 0.0
	hi := float64(opts.PacketBytes) / opts.BandwidthBytesPerSec
	broke := false
	for i := 0; i < toleranceMaxDoublings; i++ {
		if makespan(hi) > threshold {
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
		if makespan(mid) > threshold {
			hi = mid
		} else {
			lo = mid
		}
	}
	tol.PerHopSeconds = lo
	return tol, nil
}
