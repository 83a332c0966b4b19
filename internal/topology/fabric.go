package topology

import "fmt"

// fabric is the shared machinery of the switch-fabric families added
// beyond the paper's three (Slim Fly, Jellyfish): compute nodes hang off
// switches by terminal links, switches form an arbitrary graph, and
// minimal routing runs on eagerly-built BFS distance tables over the
// switch graph — the "BFS where no analytic form exists" rule. The
// tables are immutable after construction, so one instance is safe to
// share across concurrent analysis cells (the workcache contract).
//
// Vertex layout: compute nodes 0..nodes-1, then switches. Node v attaches
// to switch v / perSwitch.
type fabric struct {
	nodes     int
	switches  int
	perSwitch int

	links   []Link
	classes []LinkClass

	termLink []int      // node -> terminal link index
	swAdj    [][]swEdge // switch -> neighbors in ascending link order
	dist     [][]int16  // dist[s][t] = switch-graph hops s -> t
}

type swEdge struct {
	to   int32 // peer switch index
	link int32
}

// initFabric sets the sizes and creates the terminal links (always the
// first n links, in node order).
func (f *fabric) initFabric(switches, perSwitch int) {
	f.switches = switches
	f.perSwitch = perSwitch
	f.nodes = switches * perSwitch
	f.termLink = make([]int, f.nodes)
	f.swAdj = make([][]swEdge, switches)
	for v := 0; v < f.nodes; v++ {
		f.termLink[v] = len(f.links)
		f.links = append(f.links, Link{A: v, B: f.nodes + v/perSwitch})
		f.classes = append(f.classes, ClassTerminal)
	}
}

// addSwitchLink connects switches a and b (indices in 0..switches-1) with
// a link of the given class. Callers add links in a deterministic order;
// adjacency lists follow that order, which pins the routing tie-breaks.
func (f *fabric) addSwitchLink(a, b int, class LinkClass) {
	li := int32(len(f.links))
	f.links = append(f.links, Link{A: f.nodes + a, B: f.nodes + b})
	f.classes = append(f.classes, class)
	f.swAdj[a] = append(f.swAdj[a], swEdge{to: int32(b), link: li})
	f.swAdj[b] = append(f.swAdj[b], swEdge{to: int32(a), link: li})
}

// finish builds the per-switch BFS distance tables and verifies the
// switch graph is connected. name labels errors.
func (f *fabric) finish(name string) error {
	f.dist = make([][]int16, f.switches)
	queue := make([]int32, 0, f.switches)
	for s := 0; s < f.switches; s++ {
		d := make([]int16, f.switches)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, e := range f.swAdj[v] {
				if d[e.to] == -1 {
					d[e.to] = d[v] + 1
					queue = append(queue, e.to)
				}
			}
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

// Nodes implements Topology.
func (f *fabric) Nodes() int { return f.nodes }

// NumVertices implements Topology.
func (f *fabric) NumVertices() int { return f.nodes + f.switches }

// Links implements Topology.
func (f *fabric) Links() []Link { return f.links }

// LinkClasses implements Topology.
func (f *fabric) LinkClasses() []LinkClass { return f.classes }

// switchOf returns the switch a node attaches to.
func (f *fabric) switchOf(v int) int { return v / f.perSwitch }

// hopCount is the shared HopCount: two terminal hops around the
// switch-graph distance (0 for self, 2 for switch-sharing pairs).
func (f *fabric) hopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	ss, ds := f.switchOf(src), f.switchOf(dst)
	if ss == ds {
		return 2
	}
	return int(f.dist[ss][ds]) + 2
}

// route is the shared minimal route: greedy descent on the destination's
// distance table, taking the first distance-decreasing neighbor in link
// order at every switch — deterministic and exactly hopCount links long.
func (f *fabric) route(t Topology, src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(t, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	buf = append(buf, f.termLink[src])
	buf, err := f.switchPath(f.switchOf(src), f.switchOf(dst), buf)
	if err != nil {
		return nil, err
	}
	return append(buf, f.termLink[dst]), nil
}

// switchPath appends the switch-to-switch links of the route from switch
// ss to switch ds.
func (f *fabric) switchPath(ss, ds int, buf []int) ([]int, error) {
	d := f.dist[ds]
	cur := ss
	for cur != ds {
		want := d[cur] - 1
		found := false
		for _, e := range f.swAdj[cur] {
			if d[e.to] == want {
				buf = append(buf, int(e.link))
				cur = int(e.to)
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

// accumulateFlows is the shared AccumulateFlows: a route depends only on
// the switch pair between its terminal links.
func (f *fabric) accumulateFlows(t Topology, flows Flows, linkBytes []uint64) (FlowLoad, error) {
	if err := checkLinkBytes(t, linkBytes); err != nil {
		return FlowLoad{}, err
	}
	return accumulateSwitched(f, f.switches, f.perSwitch, f.termLink, f.classes, flows, linkBytes)
}

// switchDiameter returns the largest switch-graph distance (the network
// diameter between endpoints is this plus two terminal hops).
func (f *fabric) switchDiameter() int {
	max := int16(0)
	for _, row := range f.dist {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return int(max)
}
