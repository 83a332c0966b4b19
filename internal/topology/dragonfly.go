package topology

import "fmt"

// Dragonfly is the hierarchical low-diameter topology of Kim et al.,
// parameterized by:
//
//	a — routers per group
//	h — global links per router
//	p — compute nodes per router
//
// yielding g = a*h+1 groups and a*p*(a*h+1) nodes. Routers within a group
// form a complete graph (local links); every pair of groups is connected by
// exactly one global link, arranged in the palm-tree pattern: global port k
// of group g (owned by router k/h) connects to global port a*h-1-k of group
// (g+k+1) mod G. The study uses the balanced configuration a = 2h = 2p.
//
// Minimal routing takes at most five hops: terminal, up to one local hop to
// the source-side gateway router, one global hop, up to one local hop on
// the destination side, and the destination terminal.
type Dragonfly struct {
	switched
	a, h, p int
	groups  int

	localLink [][]int // group -> flattened a×a router pair -> link index (upper triangle)
	globalOf  []int   // group*a*h + k -> global link index

	// portRouter[k] = k / h, nodeGroup[v] = v / (a*p), and
	// nodeRouter[v] = (v % (a*p)) / p, precomputed so the per-pair
	// hop/route loops run on table lookups instead of divisions.
	portRouter []int32
	nodeGroup  []int32
	nodeRouter []int32
}

// NewDragonfly constructs a dragonfly. All parameters must be positive and
// a*h must be at least 1 (at least two groups).
func NewDragonfly(a, h, p int) (*Dragonfly, error) {
	if a <= 0 || h <= 0 || p <= 0 {
		return nil, fmt.Errorf("topology: invalid dragonfly parameters (a=%d,h=%d,p=%d)", a, h, p)
	}
	if a*h < 1 {
		return nil, fmt.Errorf("topology: dragonfly needs at least one global port per group")
	}
	d := &Dragonfly{a: a, h: h, p: p, groups: a*h + 1}
	d.build()
	return d, nil
}

// Vertex layout: compute nodes first (0..Nodes()-1), then routers
// (group-major, a per group), so node v hangs off router v/p.
func (d *Dragonfly) build() {
	g := d.groups
	d.init(d, d.a*g, d.p)
	n := d.nodes
	d.portRouter = make([]int32, d.a*d.h)
	for k := range d.portRouter {
		d.portRouter[k] = int32(k / d.h)
	}
	d.nodeGroup = make([]int32, n)
	d.nodeRouter = make([]int32, n)
	for v := 0; v < n; v++ {
		d.nodeGroup[v] = int32(v / (d.a * d.p))
		d.nodeRouter[v] = int32((v % (d.a * d.p)) / d.p)
	}

	// Local links: complete graph within each group.
	d.localLink = make([][]int, g)
	for gi := 0; gi < g; gi++ {
		d.localLink[gi] = make([]int, d.a*d.a)
		for r1 := 0; r1 < d.a; r1++ {
			for r2 := r1 + 1; r2 < d.a; r2++ {
				li := d.link(d.routerVertex(gi, r1), d.routerVertex(gi, r2), ClassLocal)
				d.localLink[gi][r1*d.a+r2] = li
				d.localLink[gi][r2*d.a+r1] = li
			}
		}
	}

	// Global links in the palm-tree pattern: port k of group gi connects
	// to port a*h-1-k of group (gi+k+1) mod G. Each unordered group pair
	// gets exactly one link; create it from the lower-k side only
	// (k < a*h-1-k', i.e. create when this side's port index is smaller
	// than the peer's port index would make duplicates — instead create
	// each link once by letting the side with the smaller resulting
	// tuple own it).
	ah := d.a * d.h
	d.globalOf = make([]int, g*ah)
	for i := range d.globalOf {
		d.globalOf[i] = -1
	}
	for gi := 0; gi < g; gi++ {
		for k := 0; k < ah; k++ {
			if d.globalOf[gi*ah+k] != -1 {
				continue
			}
			peerGroup := (gi + k + 1) % g
			peerPort := ah - 1 - k
			r1 := d.routerVertex(gi, k/d.h)
			r2 := d.routerVertex(peerGroup, peerPort/d.h)
			li := d.link(r1, r2, ClassGlobal)
			d.globalOf[gi*ah+k] = li
			d.globalOf[peerGroup*ah+peerPort] = li
		}
	}
}

// Params returns (a, h, p).
func (d *Dragonfly) Params() (a, h, p int) { return d.a, d.h, d.p }

// Groups returns the number of groups.
func (d *Dragonfly) Groups() int { return d.groups }

// Name implements Topology.
func (d *Dragonfly) Name() string { return fmt.Sprintf("dragonfly(%d,%d,%d)", d.a, d.h, d.p) }

// Kind implements Topology.
func (d *Dragonfly) Kind() string { return "dragonfly" }

func (d *Dragonfly) groupOf(v int) int  { return int(d.nodeGroup[v]) }
func (d *Dragonfly) routerOf(v int) int { return int(d.nodeRouter[v]) }

func (d *Dragonfly) routerVertex(group, router int) int {
	return d.nodes + group*d.a + router
}

// gatewayPort returns the global port index k of group src that reaches
// group dst directly ((src+k+1) mod G == dst).
func (d *Dragonfly) gatewayPort(src, dst int) int {
	return (dst - src - 1 + d.groups) % d.groups
}

// directHops returns the length of the canonical local-global-local path
// between nodes in different groups: 3 hops plus one local hop on each side
// whose router is not the gateway.
func (d *Dragonfly) directHops(rs, rd, gs, gd int) int {
	k := d.gatewayPort(gs, gd)
	srcGW := int(d.portRouter[k])
	peerPort := d.a*d.h - 1 - k
	dstGW := int(d.portRouter[peerPort])
	hops := 3 // terminal + global + terminal
	if rs != srcGW {
		hops++
	}
	if rd != dstGW {
		hops++
	}
	return hops
}

// twoGlobalShortcut looks for a 4-hop path using two global links through
// an intermediate group: source router owns a global port landing on a
// router that itself owns a global port landing exactly on the destination
// router. Such aligned paths beat the canonical 5-hop local-global-local
// route when both endpoints sit away from their gateways; genuine
// shortest-path routing (which the study uses) must take them. Returns the
// two global port identifiers (group*a*h + port) or ok=false.
func (d *Dragonfly) twoGlobalShortcut(rs, rd, gs, gd int) (k1, k2 int, ok bool) {
	ah := d.a * d.h
	// gx and p2 move by ±1 as p1 increments, so both are maintained with
	// wraparound subtractions instead of per-iteration mod/div.
	p1 := rs * d.h
	gx := gs + p1 + 1
	if gx >= d.groups {
		gx -= d.groups
	}
	for end := p1 + d.h; p1 < end; p1++ {
		if gx != gd {
			rx := d.portRouter[ah-1-p1] // landing router in group gx
			// Each group pair shares exactly one global link, so the
			// only candidate port of gx toward gd is its gateway port;
			// the shortcut exists iff that port belongs to the landing
			// router and its far end lands on the destination router.
			p2 := gd - gx - 1
			if p2 < 0 {
				p2 += d.groups
			}
			if d.portRouter[p2] == rx && int(d.portRouter[ah-1-p2]) == rd {
				return gs*ah + p1, gx*ah + p2, true
			}
		}
		gx++
		if gx == d.groups {
			gx = 0
		}
	}
	return 0, 0, false
}

// HopCount implements Topology.
func (d *Dragonfly) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	gs, gd := d.groupOf(src), d.groupOf(dst)
	rs, rd := d.routerOf(src), d.routerOf(dst)
	if gs == gd {
		if rs == rd {
			return 2 // node -> router -> node
		}
		return 3 // node -> router -> router -> node
	}
	hops := d.directHops(rs, rd, gs, gd)
	if hops == 5 {
		if _, _, ok := d.twoGlobalShortcut(rs, rd, gs, gd); ok {
			return 4
		}
	}
	return hops
}

// switchPath appends the router-to-router links of the minimal route
// from router ss to router ds, numbered group-major.
func (d *Dragonfly) switchPath(ss, ds int, buf []int) ([]int, error) {
	gs, rs, gd, rd := ss/d.a, ss%d.a, ds/d.a, ds%d.a
	if gs == gd {
		if rs != rd {
			buf = append(buf, d.localLink[gs][rs*d.a+rd])
		}
		return buf, nil
	}
	k := d.gatewayPort(gs, gd)
	srcGW := int(d.portRouter[k])
	peerPort := d.a*d.h - 1 - k
	dstGW := int(d.portRouter[peerPort])
	if rs != srcGW && rd != dstGW {
		// The canonical route needs two local hops; prefer an aligned
		// 4-hop double-global shortcut when one exists.
		if k1, k2, ok := d.twoGlobalShortcut(rs, rd, gs, gd); ok {
			return append(buf, d.globalOf[k1], d.globalOf[k2]), nil
		}
	}
	if rs != srcGW {
		buf = append(buf, d.localLink[gs][rs*d.a+srcGW])
	}
	buf = append(buf, d.globalOf[gs*d.a*d.h+k])
	if dstGW != rd {
		buf = append(buf, d.localLink[gd][dstGW*d.a+rd])
	}
	return buf, nil
}

var _ Topology = (*Dragonfly)(nil)
