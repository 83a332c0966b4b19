// Package topology models interconnection networks as explicit
// switch/link graphs with deterministic minimal (shortest-path) routing:
// the study's 3D torus, fat tree and dragonfly, and beyond the paper the
// 3D mesh, Slim Fly, Jellyfish and HyperX, plus Valiant routing over a
// dragonfly.
//
// Each Topology exposes compute nodes 0..Nodes()-1 (the entities ranks are
// mapped onto), an undirected link list over an internal vertex space
// (compute nodes plus switches), an analytic HopCount for fast aggregate
// metrics, a Route that returns the concrete link path of one node pair,
// and AccumulateFlows, which routes a whole traffic matrix's flows at
// once for the non-temporal network model: each family routes the flows
// that share a route (one source's tree on a torus, one switch pair
// elsewhere) once. Analytic hop counts are validated against
// breadth-first search over the explicit graph in the package tests, and
// AccumulateFlows against per-pair Route walks in package netmodel's.
//
// Following the paper, routing is shortest-path for all topologies: the
// model is non-temporal, so no load balancing or adaptivity is needed, and
// shortest paths emphasize the impact of the topology itself.
package topology

import "fmt"

// Link is an undirected connection between two vertices of the topology
// graph. A vertex is either a compute node (IDs 0..Nodes()-1) or a switch
// (IDs Nodes()..NumVertices()-1). For the torus, switches are integrated
// into the nodes, so the vertex space equals the node space.
type Link struct {
	A, B int
}

// LinkClass categorizes links for per-class analyses (e.g. the share of
// dragonfly traffic crossing global links).
type LinkClass uint8

const (
	// ClassTerminal connects a compute node to its switch.
	ClassTerminal LinkClass = iota
	// ClassLocal connects switches within the same group/stage domain
	// (torus neighbor links, fat-tree links below the top stage,
	// dragonfly intra-group links).
	ClassLocal
	// ClassGlobal connects distant domains (dragonfly inter-group links,
	// fat-tree top-stage links).
	ClassGlobal
)

// String returns the class name.
func (c LinkClass) String() string {
	switch c {
	case ClassTerminal:
		return "terminal"
	case ClassLocal:
		return "local"
	case ClassGlobal:
		return "global"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Topology is an interconnection network with deterministic minimal routing.
type Topology interface {
	// Name identifies the topology instance, e.g. "torus(4,4,4)".
	Name() string
	// Kind is the topology family: one of Kinds() ("torus", "mesh",
	// "fattree", "dragonfly", "slimfly", "jellyfish", "hyperx") or
	// "valiant-dragonfly".
	Kind() string
	// Nodes returns the number of compute nodes (rank mapping targets).
	Nodes() int
	// NumVertices returns the total vertex count (nodes + switches).
	NumVertices() int
	// Links returns the undirected link list. The slice is shared; do
	// not modify.
	Links() []Link
	// LinkClasses returns the class of each link, parallel to Links().
	LinkClasses() []LinkClass
	// HopCount returns the number of links a packet traverses from
	// compute node src to compute node dst under minimal routing.
	// HopCount(x, x) is 0.
	HopCount(src, dst int) int
	// Route returns the minimal path from src to dst as link indices
	// into Links(). The path length always equals HopCount(src, dst).
	// The returned slice is owned by the caller; buf may be passed to
	// avoid allocation (Route appends to buf[:0]).
	Route(src, dst int, buf []int) ([]int, error)
	// AccumulateFlows routes every flow that flows visits. It adds each
	// flow's bytes onto every link of its route in linkBytes, which is
	// parallel to Links() (nil skips link accounting), and returns the
	// flows' hop totals. The result equals walking Route for every flow;
	// flows that share a route are routed once.
	AccumulateFlows(flows Flows, linkBytes []uint64) (FlowLoad, error)
}

// checkEndpoints validates a node pair against the node count.
func checkEndpoints(nodes, src, dst int) error {
	if src < 0 || src >= nodes {
		return fmt.Errorf("topology: src %d out of range [0,%d)", src, nodes)
	}
	if dst < 0 || dst >= nodes {
		return fmt.Errorf("topology: dst %d out of range [0,%d)", dst, nodes)
	}
	return nil
}

// pairKey canonicalizes an unordered vertex pair (used by tests and the
// dragonfly palm-tree checks).
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Diameter returns the largest hop count between any pair of compute
// nodes under the topology's routing (for minimal routing this is the
// network diameter over endpoints). O(Nodes²) — intended for analysis and
// tests, not hot paths.
func Diameter(t Topology) int {
	max := 0
	// Ordered pairs: non-minimal schemes (e.g. Valiant) need not be
	// symmetric in src and dst.
	for s := 0; s < t.Nodes(); s++ {
		for d := 0; d < t.Nodes(); d++ {
			if s == d {
				continue
			}
			if h := t.HopCount(s, d); h > max {
				max = h
			}
		}
	}
	return max
}

// BlockSize returns the size of a topology's node blocks: Nodes() splits
// into contiguous blocks of that many nodes, and two nodes of one block
// have equal HopCount to every other node, so a search over nodes may
// score one node per block. A block is a switch's nodes on the dragonfly,
// Slim Fly, Jellyfish and HyperX, a leaf switch's on the fat tree (all
// nodes at one stage), and one node on the torus and mesh, whose nodes
// are their own routers. Valiant shares its dragonfly's router blocks
// but not their hop counts, since it hashes its pivot per node pair: it
// has blocks of one node, as has any type not named here.
func BlockSize(t Topology) int {
	switch t := t.(type) {
	case *FatTree:
		if t.stages == 1 {
			return t.nodes
		}
		return t.d
	case *Dragonfly:
		return t.perSwitch
	case *SlimFly:
		return t.perSwitch
	case *Jellyfish:
		return t.perSwitch
	case *HyperX:
		return t.perSwitch
	case *Valiant:
		return 1
	}
	return 1
}

// PathStats returns the mean hop count over ordered pairs of distinct
// compute nodes (the mean path length under uniform traffic) and the
// largest hop count, both 0 below two nodes. The hop total is an exact
// integer summed without visiting every pair: per axis on the torus and
// mesh (a coordinate pair on an axis of size k recurs (Nodes()/k)² times
// among the node pairs), and elsewhere once per pair of blocks
// (BlockSize) and once inside each block, weighted by the node pairs
// each stands for. Each unordered pair is scored once and counted for
// both orders: HopCount is symmetric under minimal routing
// (TestAllFamiliesRoutingInvariants).
func PathStats(t Topology) (mean float64, maxHops int) {
	n := t.Nodes()
	if n < 2 {
		return 0, 0
	}
	var total uint64
	if tor, ok := t.(*Torus); ok {
		for _, size := range [3]int{tor.x, tor.y, tor.z} {
			var sum uint64
			axisMax := 0
			for a := 0; a < size; a++ {
				for b := 0; b < size; b++ {
					d := tor.axisDist(a, b, size)
					sum += uint64(d)
					axisMax = max(axisMax, d)
				}
			}
			per := uint64(n / size)
			total += per * per * sum
			maxHops += axisMax
		}
	} else {
		b := BlockSize(t)
		for s := 0; s < n; s += b {
			if b > 1 {
				h := t.HopCount(s, s+1)
				total += uint64(b * (b - 1) * h)
				maxHops = max(maxHops, h)
			}
			for d := s + b; d < n; d += b {
				h := t.HopCount(s, d)
				total += uint64(2 * b * b * h)
				maxHops = max(maxHops, h)
			}
		}
	}
	return float64(total) / float64(n*(n-1)), maxHops
}
