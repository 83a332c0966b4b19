package topology

import (
	"fmt"
	"math"
)

// fabric is the layout shared by the switch-fabric families added beyond
// the paper's three (Slim Fly, Jellyfish): on the switched layout,
// switches form an arbitrary graph, kept as each switch's links in the
// order they were added, which pins every routing tie-break. Each family
// routes on it its own way: Slim Fly on an adjacency bitset, since its
// switch graph has diameter 2, and Jellyfish on BFS distance tables
// (bfsTables). Both are immutable after construction, so one instance
// is safe to share across concurrent analysis cells (the workcache
// contract).
type fabric struct {
	switched
	swAdj Adjacency // switch -> peer switch indices, in ascending link order
}

// Edge is one end of a link seen from a vertex: the vertex across the
// link and the link's index in Links().
type Edge struct {
	To, Link int32
}

// Adjacency lists each vertex's edges in ascending link order, so a walk
// that takes the k-th qualifying edge is deterministic. Its BFS fills the
// Jellyfish switch tables and congest's ECMP rows.
type Adjacency [][]Edge

// AdjacencyOf returns the adjacency of a topology's whole vertex space,
// compute nodes and switches.
func AdjacencyOf(t Topology) Adjacency {
	adj := make(Adjacency, t.NumVertices())
	for li, l := range t.Links() {
		adj[l.A] = append(adj[l.A], Edge{To: int32(l.B), Link: int32(li)})
		adj[l.B] = append(adj[l.B], Edge{To: int32(l.A), Link: int32(li)})
	}
	return adj
}

// BFS sets dist[v] to the hop count between src and every vertex v, -1
// where v is unreachable; dist needs one entry per vertex. queue is
// scratch, returned so that one buffer serves many searches. It fails
// when a distance does not fit int16.
func (a Adjacency) BFS(src int, dist []int16, queue []int32) ([]int32, error) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, e := range a[v] {
			if dist[e.To] == -1 {
				if dist[v] == math.MaxInt16 {
					return queue, fmt.Errorf("topology: bfs from %d: distance beyond %d hops", src, math.MaxInt16)
				}
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return queue, nil
}

// initFabric lays out the switches and their terminal links; fam is the
// family that embeds f.
func (f *fabric) initFabric(fam switchFamily, switches, perSwitch int) {
	f.init(fam, switches, perSwitch)
	f.swAdj = make(Adjacency, switches)
}

// addSwitchLink connects switches a and b (indices in 0..switches-1) with
// a link of the given class. Callers add links in a deterministic order;
// adjacency lists follow that order, which pins the routing tie-breaks.
func (f *fabric) addSwitchLink(a, b int, class LinkClass) {
	li := int32(f.link(f.nodes+a, f.nodes+b, class))
	f.swAdj[a] = append(f.swAdj[a], Edge{To: int32(b), Link: li})
	f.swAdj[b] = append(f.swAdj[b], Edge{To: int32(a), Link: li})
}

// bfsTables routes a fabric on eagerly built per-switch BFS distance
// tables, the "BFS where no analytic form exists" rule: Jellyfish's
// random switch graph has no shorter description of its distances.
type bfsTables struct {
	fabric
	dist [][]int16 // dist[s][t] = switch-graph hops s -> t
}

// finish builds the per-switch BFS distance tables and verifies the
// switch graph is connected. name labels errors.
func (f *bfsTables) finish(name string) error {
	f.dist = make([][]int16, f.switches)
	var queue []int32
	for s := range f.dist {
		d := make([]int16, f.switches)
		var err error
		if queue, err = f.swAdj.BFS(s, d, queue); err != nil {
			return fmt.Errorf("topology: %s: %w", name, err)
		}
		for t, dt := range d {
			if dt == -1 {
				return fmt.Errorf("topology: %s switch graph is disconnected (switch %d unreachable from %d)", name, t, s)
			}
		}
		f.dist[s] = d
	}
	return nil
}

// HopCount implements Topology: two terminal hops around the
// switch-graph distance (0 for self, 2 for switch-sharing pairs).
func (f *bfsTables) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	ss, ds := src/f.perSwitch, dst/f.perSwitch
	if ss == ds {
		return 2
	}
	return int(f.dist[ss][ds]) + 2
}

// switchPath appends the switch-to-switch links of the route from switch
// ss to switch ds: greedy descent on ds's distance table, taking the
// first distance-decreasing neighbor in link order at every switch —
// deterministic and exactly the distance long.
func (f *bfsTables) switchPath(ss, ds int, buf []int) ([]int, error) {
	d := f.dist[ds]
	cur := ss
	for cur != ds {
		want := d[cur] - 1
		found := false
		for _, e := range f.swAdj[cur] {
			if d[e.To] == want {
				buf = append(buf, int(e.Link))
				cur = int(e.To)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("topology: BFS dead end at switch %d toward %d", cur, ds)
		}
	}
	return buf, nil
}
