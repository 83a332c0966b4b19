package core

import (
	"fmt"

	"netloc/internal/mapping"
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
	opts = opts.WithEngine()
	if len(refs) == 0 {
		refs = SimWorkloads
	}
	var capped []WorkloadRef
	for _, ref := range refs {
		if opts.withinCap(ref.Ranks) {
			capped = append(capped, ref)
		}
	}
	perRef, err := runGrid(opts.Runner(), len(capped), func(i int) ([]SimRow, error) {
		ref := capped[i]
		cell := opts.Span.Start("cell")
		cell.SetLabel(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
		defer cell.End()
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Span = cell
		tr, err := generateTrace(app, ref.Ranks, o)
		if err != nil {
			return nil, err
		}
		torCfg, ftCfg, dfCfg, err := topology.Configs(ref.Ranks)
		if err != nil {
			return nil, err
		}
		rows := make([]SimRow, 0, 3)
		for _, cfg := range []topology.Config{torCfg, ftCfg, dfCfg} {
			topo, err := opts.Cache.Topology(cfg, cfg.Build)
			if err != nil {
				return nil, err
			}
			mp, err := mapping.Consecutive(ref.Ranks, topo.Nodes())
			if err != nil {
				return nil, err
			}
			// The span ends via defer on every path: a failing simulation
			// must not leave an unterminated span in the debug ring.
			stats, err := func() (*simnet.Stats, error) {
				ssp := cell.Start("simnet")
				defer ssp.End()
				ssp.SetLabel(topo.Kind())
				stats, err := simnet.Simulate(tr, topo, mp, simnet.Options{
					BandwidthBytesPerSec: opts.BandwidthBytesPerSec,
					PacketBytes:          opts.PacketSize,
				})
				if err != nil {
					return nil, fmt.Errorf("core: sim %s/%d on %s: %w", ref.App, ref.Ranks, topo.Name(), err)
				}
				ssp.Add("sim_messages", int64(stats.Messages))
				ssp.Add("sim_hops", int64(stats.HopsTraversed))
				return stats, nil
			}()
			if err != nil {
				return nil, err
			}
			rows = append(rows, SimRow{
				App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats,
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []SimRow
	for _, r := range perRef {
		rows = append(rows, r...)
	}
	return rows, nil
}
