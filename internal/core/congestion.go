package core

import (
	"fmt"
	"math"

	"netloc/internal/congest"
	"netloc/internal/mapping"
	"netloc/internal/obs"
	"netloc/internal/simnet"
	"netloc/internal/topology"
)

// CongestionRow is one cell of the congestion experiment grid: one
// workload configuration replayed on one topology under one routing
// policy through the temporal simulator.
type CongestionRow struct {
	App      string
	Ranks    int
	Topology string
	congest.Stats
	// Tolerance carries the latency-tolerance sweep for the baseline
	// (minimal-policy) row of each (workload, topology) pair; nil on the
	// other policy rows and when the sweep is disabled.
	Tolerance *congest.Tolerance `json:",omitempty"`
}

// CongestionWorkloads lists the configurations the congestion experiment
// covers by default: one representative per communication family, at
// sizes where the event-driven replay stays quick enough for RunAll.
var CongestionWorkloads = []WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "CESAR MOCFE", Ranks: 64},
	{App: "Crystal Router", Ranks: 100},
	{App: "BigFFT", Ranks: 100},
}

// CongestionTable replays each configuration on one sized topology per
// requested family (nil families means the paper's torus, fat tree, and
// dragonfly; see AnalysisKinds for the accepted names) under every
// requested routing policy (nil means all of congest.Policies, baseline
// first). growthPct sets the latency-tolerance threshold swept on each
// (workload, topology) baseline row: zero means congest.DefaultGrowthPct,
// negative disables the sweep, NaN and infinities are rejected.
// Configurations fan out over the worker budget exactly like SimTable;
// rows stay in grid order (workload, topology, policy) regardless of
// Options.Parallelism.
func CongestionTable(refs []WorkloadRef, families, policies []string, growthPct float64, opts Options) ([]CongestionRow, error) {
	if math.IsNaN(growthPct) || math.IsInf(growthPct, 0) {
		return nil, fmt.Errorf("core: invalid congestion options: growth threshold %g%% (need finite; negative disables the sweep)", growthPct)
	}
	if len(refs) == 0 {
		refs = CongestionWorkloads
	}
	if len(families) == 0 {
		families = PaperKinds()
	}
	if len(policies) == 0 {
		policies = congest.Policies()
	}
	return familyRows(refs, families, opts, func(ref WorkloadRef, w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, cell *obs.Span) ([]CongestionRow, error) {
		rows := make([]CongestionRow, 0, len(policies))
		for _, policy := range policies {
			copts := congest.Options{Policy: policy}
			// The spans end via defer on every path: a failing simulation
			// must not leave an unterminated span in the debug ring.
			stats, err := func() (*congest.Stats, error) {
				csp := cell.Start("congest")
				defer csp.End()
				csp.SetLabel(fmt.Sprintf("%s/%s", topo.Kind(), policy))
				stats, err := congest.SimulateWire(w, topo, mp, copts)
				if err != nil {
					return nil, fmt.Errorf("core: congestion %s/%d on %s (%s): %w",
						ref.App, ref.Ranks, topo.Name(), policy, err)
				}
				csp.Add("congest_sims", 1)
				csp.Add("congest_messages", int64(stats.Messages))
				return stats, nil
			}()
			if err != nil {
				return nil, err
			}
			row := CongestionRow{
				App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats,
			}
			// The tolerance sweep answers a per-(workload, topology)
			// question, so it runs once, attached to the baseline row.
			if policy == congest.PolicyMinimal && growthPct >= 0 {
				tol, err := func() (*congest.Tolerance, error) {
					tsp := cell.Start("tolerance")
					defer tsp.End()
					tsp.SetLabel(topo.Kind())
					tol, err := congest.LatencyToleranceWire(w, topo, mp, copts, growthPct)
					if err != nil {
						return nil, fmt.Errorf("core: tolerance %s/%d on %s: %w",
							ref.App, ref.Ranks, topo.Name(), err)
					}
					tsp.Add("congest_probes", int64(tol.Probes))
					return tol, nil
				}()
				if err != nil {
					return nil, err
				}
				row.Tolerance = tol
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
}
