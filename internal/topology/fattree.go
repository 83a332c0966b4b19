package topology

import "fmt"

// FatTree is a folded-Clos fat tree built from fixed-radix switches,
// following the paper's construction: every stage has the same number of
// switches, each using half its ports downward and half upward, except the
// top stage, which uses half as many switches with all ports downward
// ("only half the switches are used to connect all child switches").
//
// With radix r and d = r/2 downlinks per switch the supported
// configurations are:
//
//	stages = 1: a single r-port switch, r nodes (paper: 48)
//	stages = 2: d leaf switches × d nodes = d² nodes (paper: 576)
//	stages = 3: d pods × d leaves × d nodes = d³ nodes (paper: 13824)
//
// Minimal routing goes up to the lowest common stage and back down; hop
// counts are therefore 2, 4, or 6 depending on whether the two nodes share
// a leaf, a pod, or only the top stage.
type FatTree struct {
	radix  int
	stages int
	d      int // downlinks per switch = radix/2
	nodes  int
	wiring

	// Link-index lookup tables for deterministic routing. Parallel links
	// (two links between the same leaf/top or mid/top pair) are distinct
	// entries, so routing uses these tables rather than a pair index.
	termLink []int // node -> terminal link
	leafMid  []int // stages==3: upLink(leaf, j), the link to mid j of the leaf's pod
	midTop   []int // stages>=2: topLink(lower, k, par), parallel link par to top k
}

// upLink returns the link from leaf l to mid j of its pod (stages == 3).
func (f *FatTree) upLink(l, j int) int { return f.leafMid[l*f.d+j] }

// topLink returns parallel link par from lower switch s — a mid when
// stages == 3, a leaf when stages == 2 — to top k of its group.
func (f *FatTree) topLink(s, k, par int) int { return f.midTop[(s*(f.d/2)+k)*2+par] }

// NewFatTree constructs a fat tree with the given switch radix and stage
// count. The radix must be even and at least 4; stages must be 1..3 (the
// configurations used by the study; Table 2 uses radix 48 throughout).
func NewFatTree(radix, stages int) (*FatTree, error) {
	if radix < 4 || radix%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree radix must be even and >= 4, got %d", radix)
	}
	if stages < 1 || stages > 3 {
		return nil, fmt.Errorf("topology: fat tree stages must be 1..3, got %d", stages)
	}
	d := radix / 2
	f := &FatTree{radix: radix, stages: stages, d: d}
	switch stages {
	case 1:
		f.nodes = radix
	case 2:
		f.nodes = d * d
	case 3:
		f.nodes = d * d * d
	}
	f.build()
	return f, nil
}

// Vertex layout:
//
//	0..nodes-1                 compute nodes
//	nodes..                    leaf switches (stage 1); for stages==1 the
//	                           single switch
//	then                       mid switches (stage 2, stages==3 only)
//	then                       top switches (last stage, stages>=2)
func (f *FatTree) build() {
	n, d := f.nodes, f.d
	switch f.stages {
	case 1:
		f.termLink = f.terminals(n, n) // the only switch

	case 2:
		leaves := n / d    // d leaf switches
		tops := leaves / 2 // half as many top switches
		leafBase := n
		topBase := n + leaves
		f.termLink = f.terminals(n, d)
		// Each leaf spreads its d uplinks over the d/2 tops: two
		// parallel links per (leaf, top) pair.
		f.midTop = make([]int, 0, leaves*tops*2)
		for l := 0; l < leaves; l++ {
			for t := 0; t < tops; t++ {
				f.midTop = append(f.midTop,
					f.link(leafBase+l, topBase+t, ClassGlobal),
					f.link(leafBase+l, topBase+t, ClassGlobal))
			}
		}

	case 3:
		leaves := n / d // d*d leaf switches
		mids := leaves  // same count as leaves
		topsPerGroup := d / 2
		leafBase := n
		midBase := n + leaves
		topBase := n + leaves + mids
		f.termLink = f.terminals(n, d)
		// Leaf l of pod P connects one link to each mid (P, j).
		f.leafMid = make([]int, 0, leaves*d)
		for l := 0; l < leaves; l++ {
			pod := l / d
			for j := 0; j < d; j++ {
				f.leafMid = append(f.leafMid, f.link(leafBase+l, midBase+pod*d+j, ClassLocal))
			}
		}
		// Mid (P, j) connects two parallel links to each top (j, k).
		f.midTop = make([]int, 0, mids*topsPerGroup*2)
		for m := 0; m < mids; m++ {
			j := m % d
			for k := 0; k < topsPerGroup; k++ {
				top := topBase + j*topsPerGroup + k
				f.midTop = append(f.midTop,
					f.link(midBase+m, top, ClassGlobal),
					f.link(midBase+m, top, ClassGlobal))
			}
		}
	}
}

// Radix returns the switch radix.
func (f *FatTree) Radix() int { return f.radix }

// Stages returns the number of stages.
func (f *FatTree) Stages() int { return f.stages }

// Name implements Topology.
func (f *FatTree) Name() string { return fmt.Sprintf("fattree(%d,%d)", f.radix, f.stages) }

// Kind implements Topology.
func (f *FatTree) Kind() string { return "fattree" }

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.nodes }

// NumVertices implements Topology.
func (f *FatTree) NumVertices() int {
	n, d := f.nodes, f.d
	switch f.stages {
	case 1:
		return n + 1
	case 2:
		return n + n/d + n/d/2
	default: // 3
		return n + 2*(n/d) + d*(d/2)
	}
}

// leafOf returns the leaf-switch index (0-based within the leaf stage) of a
// node.
func (f *FatTree) leafOf(v int) int { return v / f.d }

// podOf returns the pod index of a node (stages==3).
func (f *FatTree) podOf(v int) int { return v / (f.d * f.d) }

// HopCount implements Topology.
func (f *FatTree) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	switch f.stages {
	case 1:
		return 2
	case 2:
		if f.leafOf(src) == f.leafOf(dst) {
			return 2
		}
		return 4
	default: // 3
		if f.leafOf(src) == f.leafOf(dst) {
			return 2
		}
		if f.podOf(src) == f.podOf(dst) {
			return 4
		}
		return 6
	}
}

// Route implements Topology. The upward path is selected deterministically
// from the destination ID (d-mod routing), which spreads traffic across
// uplinks the way static destination-based routing tables do.
func (f *FatTree) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(f.nodes, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	d := f.d
	switch f.stages {
	case 1:
		return append(buf, f.termLink[src], f.termLink[dst]), nil

	case 2:
		ls, ld := f.leafOf(src), f.leafOf(dst)
		if ls == ld {
			return append(buf, f.termLink[src], f.termLink[dst]), nil
		}
		top := dst % (d / 2) // destination-modular top choice
		par := (src + dst) & 1
		return append(buf,
			f.termLink[src],
			f.topLink(ls, top, par),
			f.topLink(ld, top, par),
			f.termLink[dst]), nil

	default: // 3
		ls, ld := f.leafOf(src), f.leafOf(dst)
		if ls == ld {
			return append(buf, f.termLink[src], f.termLink[dst]), nil
		}
		j := dst % d // mid index chosen by destination
		if f.podOf(src) == f.podOf(dst) {
			return append(buf,
				f.termLink[src],
				f.upLink(ls, j),
				f.upLink(ld, j),
				f.termLink[dst]), nil
		}
		ms := f.podOf(src)*d + j // global mid index (pod, j)
		md := f.podOf(dst)*d + j
		k := (dst / d) % (d / 2) // top within group j
		par := (src + dst) & 1
		return append(buf,
			f.termLink[src],
			f.upLink(ls, j),
			f.topLink(ms, k, par),
			f.topLink(md, k, par),
			f.upLink(ld, j),
			f.termLink[dst]), nil
	}
}

// AccumulateFlows implements Topology. A route's length (2, 4 or 6) and
// whether it reaches the top stage's global links follow from leaf and
// pod comparisons, so no route is walked: each flow's bytes go straight
// onto the links of its d-mod route. Those links depend on the
// destination node itself, so summing flows per key would need a
// counter per node; this keeps the scratch at none.
func (f *FatTree) AccumulateFlows(flows Flows, linkBytes []uint64) (FlowLoad, error) {
	if err := checkLinkBytes(f, linkBytes); err != nil {
		return FlowLoad{}, err
	}
	a := &fatTreeFlows{f: f, links: linkBytes, src: -1, perLeaf: newDivider(f.d), half: newDivider(f.d / 2)}
	flows(a.visit)
	a.flushSource()
	return a.load, nil
}

// fatTreeFlows is the state of one FatTree.AccumulateFlows call.
type fatTreeFlows struct {
	f             *FatTree
	links         []uint64
	load          FlowLoad
	perLeaf, half divider // by d (nodes per leaf, leaves per pod) and d/2
	src, ls, pod  int     // current source node, its leaf and its pod
	srcBytes      uint64  // bytes src has sent, not yet on its terminal link
}

func (a *fatTreeFlows) visit(src, dst int, b, packets, messages uint64) {
	f, d, links := a.f, a.f.d, a.links
	if src != a.src {
		a.flushSource()
		a.src, a.ls = src, a.perLeaf.div(src)
		a.pod = a.perLeaf.div(a.ls)
	}
	a.srcBytes += b
	ld := a.perLeaf.div(dst)
	if f.stages == 1 || ld == a.ls {
		a.load.add(b, packets, messages, 2, false)
		if links != nil {
			links[f.termLink[dst]] += b
		}
		return
	}
	par := (src + dst) & 1
	if f.stages == 2 {
		a.load.add(b, packets, messages, 4, true)
		if links != nil {
			top := dst - a.half.div(dst)*(d/2) // dst mod d/2, the top switch
			links[f.topLink(a.ls, top, par)] += b
			links[f.topLink(ld, top, par)] += b
			links[f.termLink[dst]] += b
		}
		return
	}
	j, podD := dst-ld*d, a.perLeaf.div(ld)
	if podD == a.pod {
		a.load.add(b, packets, messages, 4, false)
		if links != nil {
			links[f.upLink(a.ls, j)] += b
			links[f.upLink(ld, j)] += b
			links[f.termLink[dst]] += b
		}
		return
	}
	a.load.add(b, packets, messages, 6, true)
	if links != nil {
		k := ld - a.half.div(ld)*(d/2) // ld mod d/2, the top within group j
		links[f.upLink(a.ls, j)] += b
		links[f.topLink(a.pod*d+j, k, par)] += b
		links[f.topLink(podD*d+j, k, par)] += b
		links[f.upLink(ld, j)] += b
		links[f.termLink[dst]] += b
	}
}

// flushSource charges the current source's bytes to its terminal link.
func (a *fatTreeFlows) flushSource() {
	if a.links != nil && a.src >= 0 {
		a.links[a.f.termLink[a.src]] += a.srcBytes
	}
	a.srcBytes = 0
}

var _ Topology = (*FatTree)(nil)
