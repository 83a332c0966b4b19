package mapping

import (
	"fmt"
	"slices"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

// referenceGreedy is Greedy without its shortcuts: every step scores
// every free node against every placed partner through HopCount. It is
// the oracle the block and axis shortcuts are checked against.
func referenceGreedy(m *comm.Matrix, topo topology.Topology) []int {
	ranks, nodes := m.Ranks(), topo.Nodes()
	graph := rankGraph(m)
	nodeOf := make([]int, ranks)
	nodeUsed := make([]bool, nodes)
	placed := make([]bool, ranks)
	attach := make([]uint64, ranks)
	place := func(rank, node int) {
		nodeOf[rank] = node
		nodeUsed[node] = true
		placed[rank] = true
		for _, p := range graph[rank] {
			if !placed[p.rank] {
				attach[p.rank] += p.bytes
			}
		}
	}
	first, firstTotal := 0, uint64(0)
	for r, row := range graph {
		var total uint64
		for _, p := range row {
			total += p.bytes
		}
		if total > firstTotal {
			first, firstTotal = r, total
		}
	}
	place(first, 0)
	for n := 1; n < ranks; n++ {
		next := -1
		for r := 0; r < ranks; r++ {
			if !placed[r] && (next == -1 || attach[r] > attach[next]) {
				next = r
			}
		}
		bestNode, bestCost := -1, uint64(0)
		for node := 0; node < nodes; node++ {
			if nodeUsed[node] {
				continue
			}
			var cost uint64
			for _, p := range graph[next] {
				if placed[p.rank] {
					cost += p.bytes * uint64(topo.HopCount(node, nodeOf[p.rank]))
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
		}
		place(next, bestNode)
	}
	return nodeOf
}

// Greedy's tables equal the reference's on all eight topology types,
// Valiant included, for a stencil, a sparse irregular and an all-to-all
// workload. The topologies have spare nodes, so blocks fill partly; the
// fat trees cover one stage (one block of every node) and three, the
// HyperX one node per switch (blocks of one) and two.
func TestGreedyMatchesReference(t *testing.T) {
	df, err := topology.NewDragonfly(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	val, err := topology.NewValiant(df, 1)
	if err != nil {
		t.Fatal(err)
	}
	builds := []func() (topology.Topology, error){
		func() (topology.Topology, error) { return topology.NewTorus(6, 5, 4) },
		func() (topology.Topology, error) { return topology.NewMesh(5, 5, 5) },
		func() (topology.Topology, error) { return topology.NewFatTree(128, 1) },
		func() (topology.Topology, error) { return topology.NewFatTree(10, 3) },
		func() (topology.Topology, error) { return df, nil },
		func() (topology.Topology, error) { return val, nil },
		func() (topology.Topology, error) { return topology.NewSlimFly(5, 3) },
		func() (topology.Topology, error) { return topology.NewJellyfish(36, 4, 3, 7) },
		func() (topology.Topology, error) { return topology.NewHyperX(3, 3, 3, 4) },
		func() (topology.Topology, error) { return topology.NewHyperX(5, 5, 5, 1) },
	}
	var topos []topology.Topology
	kinds := map[string]bool{}
	for _, build := range builds {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
		kinds[topo.Kind()] = true
	}
	if len(kinds) != 8 {
		t.Fatalf("cases cover %d topology types, want 8: %v", len(kinds), kinds)
	}
	for _, w := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"Crystal Router", 100}, {"BigFFT", 100}} {
		app, err := workloads.Lookup(w.app)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(w.ranks)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			t.Run(fmt.Sprintf("%s/%d/%s", w.app, w.ranks, topo.Name()), func(t *testing.T) {
				got, err := Greedy(acc.Wire, topo)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceGreedy(acc.Wire, topo); !slices.Equal(got.NodeTable(), want) {
					t.Fatalf("Greedy maps ranks to %v, the reference to %v", got.NodeTable(), want)
				}
			})
		}
	}
}
