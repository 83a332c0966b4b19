package core

import (
	"fmt"
	"slices"

	"netloc/internal/mapping"
	"netloc/internal/obs"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

// SimRow is one row of the dynamic-effects table (an extension of the
// paper: its static model deliberately ignores timing, and names dynamic
// effects as future work). One row covers one workload configuration on
// one topology.
type SimRow struct {
	App      string
	Ranks    int
	Topology string
	simnet.Stats
}

// SimWorkloads lists the configurations the sim experiment covers by
// default: one small and one medium configuration per communication
// family, kept at sizes where the message-level simulation stays quick.
var SimWorkloads = []WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "MiniFE", Ranks: 144},
	{App: "CESAR MOCFE", Ranks: 64},
	{App: "Crystal Router", Ranks: 100},
	{App: "PARTISN", Ranks: 168},
	{App: "AMR_Miniapp", Ranks: 64},
	{App: "BigFFT", Ranks: 100},
}

// SimTable simulates each configuration on its Table 2 torus, fat tree,
// and dragonfly. Configurations fan out over the worker budget (each
// one generates its trace once and replays it on the three topologies
// in order); rows stay in table order regardless of Parallelism.
func SimTable(refs []WorkloadRef, opts Options) ([]SimRow, error) {
	if len(refs) == 0 {
		refs = SimWorkloads
	}
	return familyRows(refs, PaperKinds(), opts, func(ref WorkloadRef, w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, cell *obs.Span) ([]SimRow, error) {
		// The span ends via defer on every path: a failing simulation must
		// not leave an unterminated span in the debug ring.
		ssp := cell.Start("simnet")
		defer ssp.End()
		ssp.SetLabel(topo.Kind())
		stats, err := w.Simulate(topo, mp, simnet.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: sim %s/%d on %s: %w", ref.App, ref.Ranks, topo.Name(), err)
		}
		ssp.Add("sim_messages", int64(stats.Messages))
		ssp.Add("sim_hops", int64(stats.HopsTraversed))
		return []SimRow{{App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats}}, nil
	})
}

// familyRows is the cell of SimTable and CongestionTable, run through
// eachCell: the configuration's trace is generated once and every family
// sized (ConfigFor) before anything runs, then the trace is prepared
// once (simnet.Prepare); then, family by family, rows gets the Wire, the
// cached topology and the consecutive mapping. The rows of every cell
// come back flattened in (configuration, family) order.
func familyRows[R any](refs []WorkloadRef, families []string, opts Options,
	rows func(ref WorkloadRef, w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, cell *obs.Span) ([]R, error)) ([]R, error) {
	perRef, err := eachCell(refs, opts, func(ref WorkloadRef, o Options) ([]R, error) {
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return nil, err
		}
		tr, err := generateTrace(app, ref.Ranks, o)
		if err != nil {
			return nil, err
		}
		cfgs := make([]topology.Config, len(families))
		for i, fam := range families {
			if cfgs[i], err = ConfigFor(fam, ref.Ranks); err != nil {
				return nil, err
			}
		}
		w, err := simnet.Prepare(tr)
		if err != nil {
			return nil, fmt.Errorf("core: %s/%d: simnet: %w", ref.App, ref.Ranks, err)
		}
		var out []R
		for _, cfg := range cfgs {
			topo, err := Topology(cfg, o)
			if err != nil {
				return nil, err
			}
			mp, err := mapping.Consecutive(ref.Ranks, topo.Nodes())
			if err != nil {
				return nil, err
			}
			r, err := rows(ref, w, topo, mp, o.Span)
			if err != nil {
				return nil, err
			}
			out = append(out, r...)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perRef...), nil
}
