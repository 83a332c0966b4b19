package mapping

import (
	"fmt"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// Cost returns the volume-weighted hop count of a mapping: the sum over
// rank pairs of bytes x hops between their nodes. This is the objective
// the mapping optimizers minimize (proportional to the network model's
// byte-hops, hence to latency and dynamic link energy). The sum is exact.
func Cost(m *comm.Matrix, topo topology.Topology, mp *Mapping) (uint64, error) {
	if mp.Ranks() < m.Ranks() {
		return 0, fmt.Errorf("mapping: mapping covers %d ranks, matrix has %d", mp.Ranks(), m.Ranks())
	}
	var total uint64
	m.Each(func(k comm.Key, e comm.Entry) {
		total += e.Bytes * uint64(topo.HopCount(mp.nodeOf[k.Src], mp.nodeOf[k.Dst]))
	})
	return total, nil
}

// Refine improves a one-rank-per-node mapping by pairwise-swap hill
// climbing: it repeatedly swaps the node assignments of two ranks whenever
// that lowers the volume-weighted hop count, until a full pass finds no
// improving swap or maxPasses is reached. This is the classic local-search
// step of topology-mapping frameworks; combined with Greedy it implements
// the paper's proposed "advanced mapping" of heavily communicating rank
// groups onto nearby physical entities.
func Refine(m *comm.Matrix, topo topology.Topology, initial *Mapping, maxPasses int) (*Mapping, error) {
	ranks := m.Ranks()
	if initial.Ranks() < ranks {
		return nil, fmt.Errorf("mapping: initial mapping covers %d ranks, matrix has %d", initial.Ranks(), ranks)
	}
	if maxPasses < 1 {
		maxPasses = 1
	}
	nodeOf := initial.Table()[:ranks]
	// Verify one-rank-per-node (swaps assume it).
	used := make([]bool, initial.Nodes())
	for _, n := range nodeOf {
		if used[n] {
			return nil, fmt.Errorf("mapping: node %d hosts multiple ranks; Refine needs one rank per node", n)
		}
		used[n] = true
	}
	graph := rankGraph(m)

	// cost of rank r sitting on node n, excluding any edge to `exclude`.
	costAt := func(r, n, exclude int) uint64 {
		var c uint64
		for _, p := range graph[r] {
			if p.rank != exclude {
				c += p.bytes * uint64(topo.HopCount(n, nodeOf[p.rank]))
			}
		}
		return c
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for r1 := 0; r1 < ranks; r1++ {
			if len(graph[r1]) == 0 {
				continue
			}
			for r2 := r1 + 1; r2 < ranks; r2++ {
				n1, n2 := nodeOf[r1], nodeOf[r2]
				before := costAt(r1, n1, r2) + costAt(r2, n2, r1)
				after := costAt(r1, n2, r2) + costAt(r2, n1, r1)
				// The mutual r1<->r2 term is symmetric in (n1, n2) and
				// cancels from the delta.
				if after < before {
					nodeOf[r1], nodeOf[r2] = n2, n1
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return New(nodeOf, initial.Nodes())
}

// Optimize is the one-call "advanced mapping" entry point: it refines a
// greedy placement, the consecutive baseline, and — on torus/mesh
// topologies — a recursive-bisection placement with pairwise-swap hill
// climbing, returning whichever ends cheapest, so the result never loses
// to the consecutive mapping the study uses.
func Optimize(m *comm.Matrix, topo topology.Topology, maxPasses int) (*Mapping, error) {
	greedy, err := Greedy(m, topo)
	if err != nil {
		return nil, err
	}
	consecutive, err := Consecutive(m.Ranks(), topo.Nodes())
	if err != nil {
		return nil, err
	}
	seeds := []*Mapping{greedy, consecutive}
	if grid, ok := topo.(*topology.Torus); ok {
		bis, err := Bisection(m, grid)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, bis)
	}
	var best *Mapping
	var bestCost uint64
	for _, seed := range seeds {
		refined, err := Refine(m, topo, seed, maxPasses)
		if err != nil {
			return nil, err
		}
		c, err := Cost(m, topo, refined)
		if err != nil {
			return nil, err
		}
		if best == nil || c < bestCost {
			best, bestCost = refined, c
		}
	}
	return best, nil
}
