package mapping

import (
	"fmt"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// Bisection builds a one-rank-per-node mapping on a torus or mesh by
// recursive coordinate bisection — the classic topology-mapping scheme:
// the node box is split along its longest dimension, the rank set is
// split into matching halves so that the traffic crossing the split is
// small (greedy graph growing), and both halves recurse. Heavy rank
// clusters therefore land in compact sub-boxes, which is precisely the
// "assign groups of heavily communicating ranks to nearby physical
// entities" the paper proposes.
//
// Unlike the swap-refinement in Refine, bisection is constructive and
// O(R² log R); combining both (Bisection then Refine) is the strongest
// mapper in this package.
func Bisection(m *comm.Matrix, topo *topology.Torus) (*Mapping, error) {
	ranks := m.Ranks()
	if topo.Nodes() < ranks {
		return nil, fmt.Errorf("mapping: topology %s has %d nodes for %d ranks", topo.Name(), topo.Nodes(), ranks)
	}
	x, y, z := topo.Dims()

	graph := m.Partners()

	nodeOf := make([]int, ranks)
	for i := range nodeOf {
		nodeOf[i] = -1
	}

	// box is a sub-cuboid of the node grid.
	type box struct {
		x0, y0, z0 int
		dx, dy, dz int
	}
	nodesIn := func(b box) []int {
		out := make([]int, 0, b.dx*b.dy*b.dz)
		for cz := b.z0; cz < b.z0+b.dz; cz++ {
			for cy := b.y0; cy < b.y0+b.dy; cy++ {
				for cx := b.x0; cx < b.x0+b.dx; cx++ {
					out = append(out, (cz*y+cy)*x+cx)
				}
			}
		}
		return out
	}

	// partition splits the (ascending) rank set into a part of size k with
	// small cut: grow from the rank with the heaviest internal attachment.
	// Calls share the rank-indexed scratch, set up over the set on entry.
	inSet, taken := make([]bool, ranks), make([]bool, ranks)
	totals, attach := make([]uint64, ranks), make([]uint64, ranks)
	partition := func(set []int, k int) (first, second []int) {
		if k <= 0 {
			return nil, append([]int(nil), set...)
		}
		if k >= len(set) {
			return append([]int(nil), set...), nil
		}
		for _, r := range set {
			inSet[r], taken[r], totals[r], attach[r] = true, false, 0, 0
		}
		// Seed: rank with the largest traffic inside the set.
		for _, r := range set {
			for _, p := range graph[r] {
				if inSet[p.Rank] {
					totals[r] += p.Bytes
				}
			}
		}
		seed := set[0]
		for _, r := range set {
			if totals[r] > totals[seed] {
				seed = r
			}
		}
		take := func(r int) {
			taken[r] = true
			for _, p := range graph[r] {
				if inSet[p.Rank] && !taken[p.Rank] {
					attach[p.Rank] += p.Bytes
				}
			}
		}
		take(seed)
		for n := 1; n < k; n++ {
			best := -1
			for _, r := range set {
				if !taken[r] && (best == -1 || attach[r] > attach[best]) {
					best = r
				}
			}
			if attach[best] == 0 {
				// The frontier dried up (disconnected cluster): re-seed
				// at the heaviest remaining rank so whole clusters move
				// together instead of falling back to index order.
				for _, r := range set {
					if !taken[r] && totals[r] > totals[best] {
						best = r
					}
				}
			}
			take(best)
		}
		for _, r := range set {
			inSet[r] = false
			if taken[r] {
				first = append(first, r)
			} else {
				second = append(second, r)
			}
		}
		return first, second
	}

	var recurse func(set []int, b box)
	recurse = func(set []int, b box) {
		if len(set) == 0 {
			return
		}
		if len(set) == 1 || b.dx*b.dy*b.dz == 1 {
			nodes := nodesIn(b)
			for i, r := range set {
				nodeOf[r] = nodes[i]
			}
			return
		}
		// Split the box along its longest dimension.
		var b1, b2 box
		switch {
		case b.dx >= b.dy && b.dx >= b.dz:
			h := b.dx / 2
			b1, b2 = b, b
			b1.dx = h
			b2.x0 += h
			b2.dx = b.dx - h
		case b.dy >= b.dz:
			h := b.dy / 2
			b1, b2 = b, b
			b1.dy = h
			b2.y0 += h
			b2.dy = b.dy - h
		default:
			h := b.dz / 2
			b1, b2 = b, b
			b1.dz = h
			b2.z0 += h
			b2.dz = b.dz - h
		}
		cap1 := b1.dx * b1.dy * b1.dz
		// Ranks in the first half: proportional to the box capacities,
		// never exceeding either capacity.
		k := len(set) * cap1 / (b.dx * b.dy * b.dz)
		if k > cap1 {
			k = cap1
		}
		if rest := len(set) - k; rest > b2.dx*b2.dy*b2.dz {
			k = len(set) - b2.dx*b2.dy*b2.dz
		}
		s1, s2 := partition(set, k)
		recurse(s1, b1)
		recurse(s2, b2)
	}

	all := make([]int, ranks)
	for i := range all {
		all[i] = i
	}
	recurse(all, box{dx: x, dy: y, dz: z})

	for r, n := range nodeOf {
		if n < 0 {
			return nil, fmt.Errorf("mapping: bisection left rank %d unplaced", r)
		}
	}
	return New(nodeOf, topo.Nodes())
}
