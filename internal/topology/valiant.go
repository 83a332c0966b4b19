package topology

import "fmt"

// Valiant wraps a Dragonfly with Valiant (randomized-intermediate)
// routing: inter-group packets first travel minimally to a pivot group
// chosen per source/destination pair, then minimally onward. Production
// dragonflies use adaptive routing built on this scheme to spread load;
// the paper's discussion notes it "often results in even longer paths"
// than the minimal routing its study assumes — this wrapper quantifies
// exactly that gap (see BenchmarkAblationValiantRouting).
//
// The pivot choice is a deterministic hash of (src, dst, seed) so results
// are reproducible; intra-group traffic routes minimally.
type Valiant struct {
	*Dragonfly
	seed uint64
}

// NewValiant wraps a dragonfly with Valiant routing.
func NewValiant(d *Dragonfly, seed uint64) (*Valiant, error) {
	if d == nil {
		return nil, fmt.Errorf("topology: nil dragonfly")
	}
	return &Valiant{Dragonfly: d, seed: seed}, nil
}

// Name implements Topology.
func (v *Valiant) Name() string {
	a, h, p := v.Params()
	return fmt.Sprintf("valiant-dragonfly(%d,%d,%d)", a, h, p)
}

// Kind implements Topology.
func (v *Valiant) Kind() string { return "valiant-dragonfly" }

// pivotGroup picks the intermediate group for a pair: a deterministic
// pseudo-random group different from both endpoints' groups.
func (v *Valiant) pivotGroup(src, dst int) int {
	gs, gd := v.groupOf(src), v.groupOf(dst)
	x := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xBF58476D1CE4E5B9 ^ v.seed
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	g := int(x % uint64(v.Groups()))
	for g == gs || g == gd {
		g = (g + 1) % v.Groups()
	}
	return g
}

// Route implements Topology: terminal, local hop to the gateway toward the
// pivot group, global to the pivot, local to the pivot's gateway toward
// the destination group, global again, local to the destination router,
// terminal. Hops that start where they must end (the gateway is already
// the right router) are skipped, so paths run from 5 to 8 links.
func (v *Valiant) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(v.nodes, src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	if src == dst {
		return buf, nil
	}
	gs, gd := v.groupOf(src), v.groupOf(dst)
	if gs == gd || v.Groups() < 3 {
		// Intra-group (or too few groups to detour): minimal.
		return v.Dragonfly.Route(src, dst, buf)
	}
	gi := v.pivotGroup(src, dst)
	ah := v.a * v.h

	buf = append(buf, v.termLink[src])
	// Source group: local to the gateway toward the pivot, then global.
	cur := v.routerOf(src)
	k1 := v.gatewayPort(gs, gi)
	if gw := k1 / v.h; gw != cur {
		buf = append(buf, v.localLink[gs][cur*v.a+gw])
	}
	buf = append(buf, v.globalOf[gs*ah+k1])
	// Pivot group: land, hop to the gateway toward the destination group.
	cur = (ah - 1 - k1) / v.h
	k2 := v.gatewayPort(gi, gd)
	if gw := k2 / v.h; gw != cur {
		buf = append(buf, v.localLink[gi][cur*v.a+gw])
	}
	buf = append(buf, v.globalOf[gi*ah+k2])
	// Destination group: land, hop to the destination router, eject.
	cur = (ah - 1 - k2) / v.h
	if rd := v.routerOf(dst); rd != cur {
		buf = append(buf, v.localLink[gd][cur*v.a+rd])
	}
	return append(buf, v.termLink[dst]), nil
}

// HopCount implements Topology: the length of the Valiant path.
func (v *Valiant) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	gs, gd := v.groupOf(src), v.groupOf(dst)
	if gs == gd || v.Groups() < 3 {
		return v.Dragonfly.HopCount(src, dst)
	}
	gi := v.pivotGroup(src, dst)
	hops := 4 // two terminals + two globals
	k1 := v.gatewayPort(gs, gi)
	if k1/v.h != v.routerOf(src) {
		hops++
	}
	k2 := v.gatewayPort(gi, gd)
	if (v.a*v.h-1-k1)/v.h != k2/v.h {
		hops++
	}
	if (v.a*v.h-1-k2)/v.h != v.routerOf(dst) {
		hops++
	}
	return hops
}

// AccumulateFlows implements Topology. The pivot is hashed per node
// pair, so no two pairs are known to share a route: each flow walks its
// own (the embedded dragonfly's method would route minimally).
func (v *Valiant) AccumulateFlows(flows Flows, linkBytes []uint64) (FlowLoad, error) {
	if err := checkLinkBytes(v, linkBytes); err != nil {
		return FlowLoad{}, err
	}
	return accumulateRoutes(v, flows, linkBytes)
}

var _ Topology = (*Valiant)(nil)
