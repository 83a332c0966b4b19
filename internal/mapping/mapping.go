// Package mapping assigns MPI ranks to physical compute nodes.
//
// The study uses a simple consecutive mapping (rank i on node i, or blocks
// of c consecutive ranks per node in the multi-core analysis). Its
// discussion argues that "a smart mapping could dramatically reduce network
// traffic" by co-locating heavily communicating ranks; the Greedy,
// Refine and Bisection mappers implement that idea as an extension and
// are exercised by the ablation benchmarks and the design search.
//
// All three search one rank graph, the matrix's undirected view
// (comm.Matrix.Partners, built once per matrix): each rank's partners in
// ascending rank order, both directions of a pair summed into one uint64
// byte weight. Their costs are uint64 sums of bytes × hops, exact because
// comm caps a matrix at comm.MaxVolume bytes, so a mapping depends only
// on the traffic, never on the order it was recorded or summed in. Ties
// go to the lowest rank and node.
//
// Greedy, which the design search runs on every candidate, scores a
// step's free nodes through two exact shortcuts built on facts package
// topology states: one node per block of nodes with equal hop counts
// (topology.BlockSize), and hop counts read from rows, per axis on a
// torus or mesh (Torus.AxisSum) and per block elsewhere, each block's
// row filled once per call. Its tables equal those of the search without
// them.
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
// ranks to nearby physical entities"). Ties go to the lowest rank and the
// lowest node.
//
// Two exact shortcuts keep a step from scoring every free node against
// every partner through HopCount. The free nodes of one block
// (topology.BlockSize) cost the same, so only a block's first free node,
// its lowest, is scored. And a partner's hop counts are read from a row:
// on a torus or mesh a hop count is a sum of per-axis distances, so one
// pass over the partners fills an axis row and a node's cost is three
// lookups (Torus.AxisSum); on every other topology a partner's node has
// one hop count to all of another block's nodes, and one to the other
// nodes of its own block, so each block a partner sits in gets a row of
// hop counts per block, filled on first use and read by every later step.
func Greedy(m *comm.Matrix, topo topology.Topology) (*Mapping, error) {
	ranks, nodes := m.Ranks(), topo.Nodes()
	if nodes < ranks {
		return nil, fmt.Errorf("mapping: topology %s has %d nodes for %d ranks", topo.Name(), nodes, ranks)
	}
	graph := m.Partners()
	block := topology.BlockSize(topo)
	torus, onAxes := topo.(*topology.Torus)
	var axes []uint64 // the partners' axis row on a torus or mesh
	var hopRow func(u int) []uint16
	if onAxes {
		axes = torus.AxisRow()
	} else {
		hopRow = hopRows(topo, block, ranks)
	}

	nodeOf := make([]int, ranks)
	nodeUsed := make([]bool, nodes)
	placed := make([]bool, ranks)
	attach := make([]uint64, ranks) // traffic to already-placed ranks
	place := func(rank, node int) {
		nodeOf[rank] = node
		nodeUsed[node] = true
		placed[rank] = true
		for _, p := range graph[rank] {
			if !placed[p.Rank] {
				attach[p.Rank] += p.Bytes
			}
		}
	}
	// Start from the rank with the largest total traffic.
	first, firstTotal := 0, uint64(0)
	for r, row := range graph {
		var total uint64
		for _, p := range row {
			total += p.Bytes
		}
		if total > firstTotal {
			first, firstTotal = r, total
		}
	}
	place(first, 0)
	// Off a torus or mesh, the next rank's placed partners: each one's
	// hop row and bytes.
	type anchor struct {
		hops  []uint16
		bytes uint64
	}
	anchors := make([]anchor, 0, ranks)

	for n := 1; n < ranks; n++ {
		// Next rank: strongest attachment; ties and isolated ranks fall
		// back to lowest index.
		next := -1
		for r := 0; r < ranks; r++ {
			if !placed[r] && (next == -1 || attach[r] > attach[next]) {
				next = r
			}
		}
		anchored := false
		anchors = anchors[:0]
		if onAxes {
			clear(axes)
		}
		for _, p := range graph[next] {
			switch {
			case !placed[p.Rank]:
				continue
			case onAxes:
				torus.AddAxisDistances(axes, nodeOf[p.Rank], p.Bytes)
			default:
				anchors = append(anchors, anchor{hopRow(nodeOf[p.Rank]), p.Bytes})
			}
			anchored = true
		}
		// Best free node: minimize weighted hops to the placed partners;
		// without any, the first free node.
		bestNode, bestCost := -1, uint64(0)
		for node := 0; node < nodes; node++ {
			if nodeUsed[node] {
				continue
			}
			var cost uint64
			if onAxes {
				cost = torus.AxisSum(axes, node)
			} else {
				b := node / block
				for _, a := range anchors {
					cost += a.bytes * uint64(a.hops[b])
				}
			}
			if bestNode == -1 || cost < bestCost {
				bestNode, bestCost = node, cost
			}
			if !anchored {
				break
			}
			node += block - 1 - node%block // the block's other free nodes cost the same
		}
		place(next, bestNode)
	}
	return &Mapping{nodeOf: nodeOf, nodes: nodes}, nil
}

// hopRows returns Greedy's hop-row lookup on a topology of nodes in
// blocks of block (topology.BlockSize): given a node u of block b, the
// row whose entry c is the HopCount from block c's nodes to u, and for
// c = b the HopCount between any two nodes of b. The row is the same
// for every node of b, so each block's is filled by its first lookup
// and shared by later ones. At most min(blocks, ranks) blocks host a
// rank, so the rows fit one arena of that many rows. An entry is
// uint16: routes are shorter than 2^16 links (comm.MaxVolume's premise).
func hopRows(topo topology.Topology, block, ranks int) func(u int) []uint16 {
	blocks := topo.Nodes() / block
	arena := make([]uint16, min(blocks, ranks)*blocks)
	slot := make([]int32, blocks) // block -> its row's index + 1, 0 until filled
	filled := 0
	return func(u int) []uint16 {
		b := u / block
		if slot[b] == 0 {
			row := arena[filled*blocks : (filled+1)*blocks]
			for c := range row {
				if c != b {
					row[c] = uint16(topo.HopCount(c*block, u))
				}
			}
			if block > 1 {
				row[b] = uint16(topo.HopCount(b*block, b*block+1))
			}
			filled++
			slot[b] = int32(filled)
		}
		i := int(slot[b]) - 1
		return arena[i*blocks : (i+1)*blocks]
	}
}
