// Package mapping assigns MPI ranks to physical compute nodes.
//
// The study uses a simple consecutive mapping (rank i on node i, or blocks
// of c consecutive ranks per node in the multi-core analysis). Its
// discussion argues that "a smart mapping could dramatically reduce network
// traffic" by co-locating heavily communicating ranks; the Greedy mapper
// implements that idea as an extension and is exercised by the ablation
// benchmarks.
package mapping

import (
	"fmt"
	"math/rand"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// Mapping maps ranks 0..Ranks()-1 onto nodes of a topology. Multiple ranks
// may share a node (multi-core configurations).
type Mapping struct {
	nodeOf []int
	nodes  int
}

// New builds a mapping from an explicit rank→node table.
func New(nodeOf []int, nodes int) (*Mapping, error) {
	if len(nodeOf) == 0 {
		return nil, fmt.Errorf("mapping: empty rank table")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("mapping: non-positive node count %d", nodes)
	}
	for r, n := range nodeOf {
		if n < 0 || n >= nodes {
			return nil, fmt.Errorf("mapping: rank %d mapped to node %d outside [0,%d)", r, n, nodes)
		}
	}
	return &Mapping{nodeOf: append([]int(nil), nodeOf...), nodes: nodes}, nil
}

// Consecutive maps rank i to node i. Requires nodes >= ranks.
func Consecutive(ranks, nodes int) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks one-per-node", nodes, ranks)
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}

// Blocked maps ranksPerNode consecutive ranks onto each node (the paper's
// multi-core mapping: "the number of ranks is consecutively mapped to one
// node, according to the number of cores").
func Blocked(ranks, nodes, ranksPerNode int) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if ranksPerNode <= 0 {
		return nil, fmt.Errorf("mapping: non-positive ranks-per-node %d", ranksPerNode)
	}
	needed := (ranks + ranksPerNode - 1) / ranksPerNode
	if nodes < needed {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks at %d per node", nodes, ranks, ranksPerNode)
	}
	nodeOf := make([]int, ranks)
	for r := range nodeOf {
		nodeOf[r] = r / ranksPerNode
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}

// Random maps ranks to a seeded random permutation of distinct nodes.
func Random(ranks, nodes int, seed int64) (*Mapping, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("mapping: non-positive rank count %d", ranks)
	}
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: %d nodes cannot host %d ranks one-per-node", nodes, ranks)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(nodes)[:ranks]
	return &Mapping{nodeOf: perm, nodes: nodes}, nil
}

// Ranks returns the number of mapped ranks.
func (m *Mapping) Ranks() int { return len(m.nodeOf) }

// Nodes returns the size of the node space.
func (m *Mapping) Nodes() int { return m.nodes }

// NodeOf returns the node hosting a rank.
func (m *Mapping) NodeOf(rank int) (int, error) {
	if rank < 0 || rank >= len(m.nodeOf) {
		return 0, fmt.Errorf("mapping: rank %d out of range [0,%d)", rank, len(m.nodeOf))
	}
	return m.nodeOf[rank], nil
}

// Table returns a copy of the rank→node table.
func (m *Mapping) Table() []int { return append([]int(nil), m.nodeOf...) }

// NodeTable returns the rank→node table itself, for hot loops that only
// read it. The slice is shared; do not modify.
func (m *Mapping) NodeTable() []int { return m.nodeOf }

// UsedNodes returns the number of distinct nodes hosting at least one rank.
func (m *Mapping) UsedNodes() int {
	seen := make(map[int]struct{}, len(m.nodeOf))
	for _, n := range m.nodeOf {
		seen[n] = struct{}{}
	}
	return len(seen)
}

// Greedy builds a communication-aware one-rank-per-node mapping: ranks are
// placed in order of their traffic attachment to already-placed ranks, each
// onto the free node minimizing the volume-weighted hop distance to its
// placed partners. This is the classic greedy topology-mapping heuristic
// the paper's discussion motivates ("assign groups of heavily communicating
// ranks to nearby physical entities").
func Greedy(m *comm.Matrix, topo topology.Topology) (*Mapping, error) {
	ranks := m.Ranks()
	if topo.Nodes() < ranks {
		return nil, fmt.Errorf("mapping: topology %s has %d nodes for %d ranks", topo.Name(), topo.Nodes(), ranks)
	}
	// Symmetric traffic between rank pairs.
	traffic := make(map[comm.Key]float64, m.Pairs())
	m.Each(func(k comm.Key, e comm.Entry) {
		a, b := k.Src, k.Dst
		if a > b {
			a, b = b, a
		}
		traffic[comm.Key{Src: a, Dst: b}] += float64(e.Bytes)
	})
	neighbors := make([][]int, ranks)
	weight := func(a, b int) float64 {
		if a > b {
			a, b = b, a
		}
		return traffic[comm.Key{Src: a, Dst: b}]
	}
	for k := range traffic {
		neighbors[k.Src] = append(neighbors[k.Src], k.Dst)
		neighbors[k.Dst] = append(neighbors[k.Dst], k.Src)
	}

	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	nodeFree := make([]bool, topo.Nodes())
	for i := range nodeFree {
		nodeFree[i] = true
	}
	placed := make([]bool, ranks)
	attach := make([]float64, ranks) // traffic to already-placed ranks

	// Start from the rank with the largest total traffic.
	totals := make([]float64, ranks)
	for k, v := range traffic {
		totals[k.Src] += v
		totals[k.Dst] += v
	}
	first := 0
	for r := 1; r < ranks; r++ {
		if totals[r] > totals[first] {
			first = r
		}
	}

	place := func(rank, node int) {
		nodeOf[rank] = node
		nodeFree[node] = false
		placed[rank] = true
		for _, nb := range neighbors[rank] {
			if !placed[nb] {
				attach[nb] += weight(rank, nb)
			}
		}
	}
	place(first, 0)

	for n := 1; n < ranks; n++ {
		// Next rank: strongest attachment; ties and isolated ranks fall
		// back to lowest index for determinism.
		next := -1
		for r := 0; r < ranks; r++ {
			if placed[r] {
				continue
			}
			if next == -1 || attach[r] > attach[next] {
				next = r
			}
		}
		// Best free node: minimize weighted hops to placed partners.
		bestNode, bestCost := -1, 0.0
		hasPartner := false
		for _, nb := range neighbors[next] {
			if placed[nb] {
				hasPartner = true
				break
			}
		}
		for node := 0; node < topo.Nodes(); node++ {
			if !nodeFree[node] {
				continue
			}
			if !hasPartner {
				bestNode = node // first free node
				break
			}
			cost := 0.0
			for _, nb := range neighbors[next] {
				if placed[nb] {
					cost += weight(next, nb) * float64(topo.HopCount(node, nodeOf[nb]))
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
		}
		place(next, bestNode)
	}
	return &Mapping{nodeOf: nodeOf, nodes: topo.Nodes()}, nil
}
