package topology

// wiring is the link list every family builds: links in creation order,
// each with its class. Link indices are creation order, so a family that
// adds its links in a fixed order pins its routes' link indices.
type wiring struct {
	links   []Link
	classes []LinkClass
}

// link adds a link between vertices a and b and returns its index.
func (w *wiring) link(a, b int, class LinkClass) int {
	w.links = append(w.links, Link{A: a, B: b})
	w.classes = append(w.classes, class)
	return len(w.links) - 1
}

// terminals adds one terminal link per compute node, in node order, from
// node v to the switch at vertex nodes+v/perSwitch, and returns each
// node's terminal link index.
func (w *wiring) terminals(nodes, perSwitch int) []int {
	term := make([]int, nodes)
	for v := range term {
		term[v] = w.link(v, nodes+v/perSwitch, ClassTerminal)
	}
	return term
}

// Links implements Topology.
func (w *wiring) Links() []Link { return w.links }

// LinkClasses implements Topology.
func (w *wiring) LinkClasses() []LinkClass { return w.classes }

// switchFamily is a family built on switched: a Topology, named in
// errors, that knows the links between the terminal links of a route.
type switchFamily interface {
	Topology
	// switchPath appends the switch-to-switch links of the route from
	// switch ss to switch ds (none when ss == ds).
	switchPath(ss, ds int, buf []int) ([]int, error)
}

// switched is the layout of the families whose compute nodes hang off
// switches (the dragonfly, Slim Fly, Jellyfish and HyperX): nodes are
// numbered in contiguous blocks of perSwitch, one block per switch, link
// v is node v's terminal link to the switch at vertex nodes+v/perSwitch,
// and a route is the source's terminal link, the family's switch path,
// and the destination's terminal link.
type switched struct {
	wiring
	nodes, switches, perSwitch int
	termLink                   []int // node -> terminal link index
	fam                        switchFamily
}

// init sizes the layout and adds the terminal links, which come first in
// the link list. fam is the family that embeds s.
func (s *switched) init(fam switchFamily, switches, perSwitch int) {
	s.fam = fam
	s.nodes, s.switches, s.perSwitch = switches*perSwitch, switches, perSwitch
	s.termLink = s.terminals(s.nodes, perSwitch)
}

// Nodes implements Topology.
func (s *switched) Nodes() int { return s.nodes }

// NumVertices implements Topology.
func (s *switched) NumVertices() int { return s.nodes + s.switches }

// Route implements Topology.
func (s *switched) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(s.nodes, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	buf = append(buf, s.termLink[src])
	buf, err := s.fam.switchPath(src/s.perSwitch, dst/s.perSwitch, buf)
	if err != nil {
		return nil, err
	}
	return append(buf, s.termLink[dst]), nil
}

// AccumulateFlows implements Topology. Everything between a route's
// terminal links depends only on the switch pair, so the flows of one
// source switch are summed per destination switch and each of those
// paths is walked once; terminal links are charged per flow.
func (s *switched) AccumulateFlows(flows Flows, linkBytes []uint64) (FlowLoad, error) {
	if err := checkLinkBytes(s.fam, linkBytes); err != nil {
		return FlowLoad{}, err
	}
	a := &switchFlows{
		fam: s.fam, classes: s.classes, termLink: s.termLink, perSwitch: newDivider(s.perSwitch),
		links: linkBytes, sums: make([]flowSum, s.switches), lastSrc: -1, src: -1,
	}
	a.buf = a.bufArr[:0]
	flows(a.visit)
	a.flushSource()
	a.routeSums()
	return a.load, a.err
}

// switchFlows is the state of one switched.AccumulateFlows call.
type switchFlows struct {
	fam       switchFamily
	classes   []LinkClass
	termLink  []int
	perSwitch divider
	links     []uint64
	load      FlowLoad

	sums     []flowSum // per destination switch, for the current source switch
	srcBytes uint64    // bytes lastSrc has sent, not yet on its terminal link
	buf      []int
	bufArr   [8]int // buf's first backing array: paths are a few links long
	lastSrc  int    // last source node, so a run of one source divides once
	src      int    // current source switch, -1 before the first flow
	err      error
}

func (a *switchFlows) visit(src, dst int, bytes, packets, messages uint64) {
	if src != a.lastSrc {
		a.flushSource()
		a.lastSrc = src
		if ss := a.perSwitch.div(src); ss != a.src {
			a.routeSums()
			a.src = ss
		}
	}
	a.sums[a.perSwitch.div(dst)].add(bytes, packets, messages)
	a.srcBytes += bytes
	if a.links != nil {
		a.links[a.termLink[dst]] += bytes
	}
}

// flushSource charges the last source's bytes to its terminal link.
func (a *switchFlows) flushSource() {
	if a.links != nil && a.lastSrc >= 0 {
		a.links[a.termLink[a.lastSrc]] += a.srcBytes
	}
	a.srcBytes = 0
}

// routeSums routes the current source switch's sums, one path per
// destination switch, and clears them.
func (a *switchFlows) routeSums() {
	if a.src < 0 || a.err != nil {
		return
	}
	for ds := range a.sums {
		s := &a.sums[ds]
		if *s == (flowSum{}) {
			continue
		}
		if a.buf, a.err = a.fam.switchPath(a.src, ds, a.buf[:0]); a.err != nil {
			return
		}
		global := chargePath(a.buf, s.bytes, a.links, a.classes)
		a.load.add(s.bytes, s.packets, s.messages, uint64(len(a.buf)+2), global)
		*s = flowSum{}
	}
}
