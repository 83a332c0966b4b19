package simnet_test

import (
	"strings"
	"testing"

	"netloc/internal/congest"
	"netloc/internal/mapping"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

// Both simulators reject malformed inputs through simnet.Prepare, each
// under its own package prefix.
func TestSimulateValidation(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	must := func(mp *mapping.Mapping, err error) *mapping.Mapping {
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	meta := trace.Meta{App: "s", Ranks: 8, WallTime: 1}
	send := &trace.Trace{Meta: meta, Events: []trace.Event{
		{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 100},
	}}
	cases := []struct {
		name string
		tr   *trace.Trace
		mp   *mapping.Mapping
		want string
	}{
		{"undersized mapping", send, must(mapping.Consecutive(4, 8)), "mapping covers 4 ranks, trace has 8"},
		{"mapping wider than topology", send, must(mapping.Consecutive(8, 16)), "node space 16 exceeds topology"},
		{"peer outside the mapping", &trace.Trace{Meta: meta, Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 8, Root: -1, Bytes: 100},
		}}, must(mapping.Consecutive(8, 8)), "message 0->8 leaves the trace's 8 ranks"},
		{"empty trace", &trace.Trace{Meta: meta}, must(mapping.Consecutive(8, 8)), "no inter-node messages"},
		// Ranks 0 and 1 share node 0.
		{"all intra-node", send, must(mapping.Blocked(8, 4, 2)), "no inter-node messages"},
	}
	sims := []struct {
		name string
		run  func(*trace.Trace, *mapping.Mapping) error
	}{
		{"simnet", func(tr *trace.Trace, mp *mapping.Mapping) error {
			_, err := simnet.Simulate(tr, topo, mp, simnet.Options{})
			return err
		}},
		{"congest", func(tr *trace.Trace, mp *mapping.Mapping) error {
			_, err := congest.Simulate(tr, topo, mp, congest.Options{})
			return err
		}},
	}
	for _, sim := range sims {
		for _, c := range cases {
			t.Run(sim.name+"/"+c.name, func(t *testing.T) {
				err := sim.run(c.tr, c.mp)
				if err == nil {
					t.Fatal("accepted")
				}
				if !strings.HasPrefix(err.Error(), sim.name+": ") || !strings.Contains(err.Error(), c.want) {
					t.Errorf("error %q, want prefix %q and %q", err, sim.name+": ", c.want)
				}
			})
		}
	}
}

// Cross-model oracle: with nothing contending, congest's event clock
// under minimal routing and simnet's greedy reservations are the same
// cut-through model and must agree bit for bit. Keeping only the
// point-to-point sends and releasing them 1 ms apart leaves every link
// idle by the time the next message arrives.
func TestMinimalCongestMatchesSimnetUncontended(t *testing.T) {
	build := func(cfg topology.Config, err error) topology.Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for _, ref := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"Crystal Router", 100}} {
		a, err := workloads.Lookup(ref.app)
		if err != nil {
			t.Fatal(err)
		}
		full, err := a.Generate(ref.ranks)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{Meta: full.Meta}
		for _, e := range full.Events {
			if e.Op == trace.OpSend {
				e.Start = uint64(len(tr.Events)) * 1_000_000
				tr.Events = append(tr.Events, e)
			}
		}
		for _, topo := range []topology.Topology{
			build(topology.TorusConfig(ref.ranks)),
			build(topology.FatTreeConfig(ref.ranks)),
			build(topology.DragonflyConfig(ref.ranks)),
		} {
			mp, err := mapping.Consecutive(ref.ranks, topo.Nodes())
			if err != nil {
				t.Fatal(err)
			}
			sim, err := simnet.Simulate(tr, topo, mp, simnet.Options{})
			if err != nil {
				t.Fatal(err)
			}
			con, err := congest.Simulate(tr, topo, mp, congest.Options{Policy: congest.PolicyMinimal})
			if err != nil {
				t.Fatal(err)
			}
			name := ref.app + " on " + topo.Name()
			if sim.DelayedShare != 0 || con.DelayedShare != 0 {
				t.Fatalf("%s: contention in the uncontended setup: simnet %g, congest %g delayed",
					name, sim.DelayedShare, con.DelayedShare)
			}
			for _, f := range []struct {
				field    string
				sim, con float64
			}{
				{"Messages", float64(sim.Messages), float64(con.Messages)},
				{"HopsTraversed", float64(sim.HopsTraversed), float64(con.HopsTraversed)},
				{"Makespan", sim.Makespan, con.Makespan},
				{"MeanLatency", sim.MeanLatency, con.MeanLatency},
				{"P99Latency", sim.P99Latency, con.P99Latency},
				{"MaxLatency", sim.MaxLatency, con.MaxLatency},
			} {
				if f.sim != f.con {
					t.Errorf("%s: %s simnet %.17g != congest minimal %.17g", name, f.field, f.sim, f.con)
				}
			}
		}
	}
}
