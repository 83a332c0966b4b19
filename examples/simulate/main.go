// Simulate contrasts the paper's static network model with the temporal
// flow-level simulator (the paper's stated future work on dynamic
// effects) and with the energy model from its discussion section: for one
// workload on all three topologies it reports static packet hops and
// utilization next to simulated latency, queueing, and the energy wasted
// by idle links.
package main

import (
	"fmt"
	"log"

	"netloc/internal/comm"
	"netloc/internal/energy"
	"netloc/internal/mapping"
	"netloc/internal/netmodel"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

func main() {
	const appName = "MiniFE"
	const ranks = 144

	app, err := workloads.Lookup(appName)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := app.Generate(ranks)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// The trace is expanded into wire messages once; each topology below
	// replays the same Wire.
	wire, err := simnet.Prepare(tr)
	if err != nil {
		log.Fatal(err)
	}
	torCfg, ftCfg, dfCfg, err := topology.Configs(ranks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s at %d ranks: static model vs flow-level simulation vs energy\n\n", appName, ranks)
	for _, cfg := range []topology.Config{torCfg, ftCfg, dfCfg} {
		topo, err := cfg.Build()
		if err != nil {
			log.Fatal(err)
		}
		mp, err := mapping.Consecutive(ranks, topo.Nodes())
		if err != nil {
			log.Fatal(err)
		}

		static, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{
			WallTime: tr.Meta.WallTime, TrackLinks: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		sim, err := wire.Simulate(topo, mp, simnet.Options{})
		if err != nil {
			log.Fatal(err)
		}
		en, err := energy.FromResult(static, len(topo.Links()), tr.Meta.WallTime,
			netmodel.DefaultBandwidth, energy.Params{})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s %s\n", topo.Kind(), cfg)
		fmt.Printf("  static:    avg hops %.2f, utilization %.4f%% over %d used links\n",
			static.AvgHops, static.UtilizationPct, static.UsedLinks)
		fmt.Printf("  simulated: mean latency %.3gs (ideal %.3gs, queueing %.3gs), "+
			"%.1f%% of messages delayed, hottest link %.2f%% busy\n",
			sim.MeanLatency, sim.MeanIdealLatency, sim.MeanQueueDelay,
			100*sim.DelayedShare, sim.MaxLinkBusyPct)
		fmt.Printf("  slackness: mean %.3gs over %d samples; %.1f%% of messages have "+
			"enough slack to absorb a half-bandwidth link\n",
			sim.MeanSlack, sim.SlackSamples, 100*sim.SlackCoverShare)
		fmt.Printf("  energy:    %.1f J total, %.1f%% burned by idle links; "+
			"running links at %.2g of nominal bandwidth would cut it to %.1f J\n\n",
			en.TotalJoules, 100*en.IdleShare, en.ScaleFraction, en.ScaledJoules)
	}
	fmt.Println("The static model is an upper bound on utilization; the simulator shows")
	fmt.Println("how little of it turns into queueing at these loads, which is the")
	fmt.Println("paper's argument for operating the network at reduced bandwidth.")
}
