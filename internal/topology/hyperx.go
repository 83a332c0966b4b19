package topology

import "fmt"

// MaxHyperXSwitches bounds the switch array (per-dimension link tables
// are O(S·(s1+s2+s3))). HyperXConfig and the design enumerator skip
// lattices above it.
const MaxHyperXSwitches = 4096

// HyperX is the flattened-butterfly generalization of Ahn et al.: switches
// sit on a 3-dimensional integer lattice of shape s1 × s2 × s3 (set a
// dimension to 1 to drop it), every pair of switches sharing all but one
// coordinate is directly connected (all-to-all per dimension per line),
// and each switch hosts t compute nodes. Minimal routing is analytic
// dimension-ordered: correct the x, then y, then z coordinate, one hop
// each, so the hop count between nodes is the number of differing switch
// coordinates plus the two terminal hops. All switch-switch links are
// ClassLocal — the lattice has no hierarchy to split on.
type HyperX struct {
	switched
	s1, s2, s3, t int
	// dimLink[d] maps (line, a, b) — the orthogonal-coordinate line index
	// and the two positions along dimension d — to a link index.
	dimLink [3][]int32
}

// NewHyperX constructs an s1 × s2 × s3 HyperX with t nodes per switch.
func NewHyperX(s1, s2, s3, t int) (*HyperX, error) {
	if s1 < 1 || s2 < 1 || s3 < 1 || t < 1 {
		return nil, fmt.Errorf("topology: invalid hyperx parameters (s1=%d,s2=%d,s3=%d,t=%d)", s1, s2, s3, t)
	}
	sw := s1 * s2 * s3
	if sw > MaxHyperXSwitches {
		return nil, fmt.Errorf("topology: hyperx switch count %d exceeds the supported maximum %d", sw, MaxHyperXSwitches)
	}
	h := &HyperX{s1: s1, s2: s2, s3: s3, t: t}
	h.init(h, sw, t)

	// Per-dimension all-to-all, dimension-major, lines in ascending
	// orthogonal order, pairs in ascending (a, b) order.
	h.dimLink[0] = make([]int32, s2*s3*s1*s1)
	for z := 0; z < s3; z++ {
		for y := 0; y < s2; y++ {
			line := z*s2 + y
			for a := 0; a < s1; a++ {
				for b := a + 1; b < s1; b++ {
					li := int32(h.link(h.switchVertex(a, y, z), h.switchVertex(b, y, z), ClassLocal))
					h.dimLink[0][(line*s1+a)*s1+b] = li
					h.dimLink[0][(line*s1+b)*s1+a] = li
				}
			}
		}
	}
	h.dimLink[1] = make([]int32, s1*s3*s2*s2)
	for z := 0; z < s3; z++ {
		for x := 0; x < s1; x++ {
			line := z*s1 + x
			for a := 0; a < s2; a++ {
				for b := a + 1; b < s2; b++ {
					li := int32(h.link(h.switchVertex(x, a, z), h.switchVertex(x, b, z), ClassLocal))
					h.dimLink[1][(line*s2+a)*s2+b] = li
					h.dimLink[1][(line*s2+b)*s2+a] = li
				}
			}
		}
	}
	h.dimLink[2] = make([]int32, s1*s2*s3*s3)
	for y := 0; y < s2; y++ {
		for x := 0; x < s1; x++ {
			line := y*s1 + x
			for a := 0; a < s3; a++ {
				for b := a + 1; b < s3; b++ {
					li := int32(h.link(h.switchVertex(x, y, a), h.switchVertex(x, y, b), ClassLocal))
					h.dimLink[2][(line*s3+a)*s3+b] = li
					h.dimLink[2][(line*s3+b)*s3+a] = li
				}
			}
		}
	}
	return h, nil
}

// Params returns (s1, s2, s3, t).
func (h *HyperX) Params() (s1, s2, s3, t int) { return h.s1, h.s2, h.s3, h.t }

// NetworkRadix returns the inter-switch degree (s1-1)+(s2-1)+(s3-1); the
// full switch radix adds t terminal ports.
func (h *HyperX) NetworkRadix() int { return h.s1 + h.s2 + h.s3 - 3 }

// switchIndex flattens lattice coordinates (x fastest).
func (h *HyperX) switchIndex(x, y, z int) int { return (z*h.s2+y)*h.s1 + x }

func (h *HyperX) switchVertex(x, y, z int) int { return h.nodes + h.switchIndex(x, y, z) }

// coords recovers the lattice coordinates of a node's switch.
func (h *HyperX) coords(v int) (x, y, z int) { return h.switchCoords(v / h.t) }

// switchCoords recovers the lattice coordinates of a switch.
func (h *HyperX) switchCoords(s int) (x, y, z int) {
	x = s % h.s1
	s /= h.s1
	return x, s % h.s2, s / h.s2
}

// Name implements Topology.
func (h *HyperX) Name() string {
	return fmt.Sprintf("hyperx(%d,%d,%d;%d)", h.s1, h.s2, h.s3, h.t)
}

// Kind implements Topology.
func (h *HyperX) Kind() string { return "hyperx" }

// HopCount implements Topology: two terminal hops plus one switch hop per
// differing lattice coordinate.
func (h *HyperX) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	sx, sy, sz := h.coords(src)
	dx, dy, dz := h.coords(dst)
	hops := 2
	if sx != dx {
		hops++
	}
	if sy != dy {
		hops++
	}
	if sz != dz {
		hops++
	}
	return hops
}

// switchPath appends the switch-to-switch links of the route from switch
// ss to switch ds: dimension-ordered, correcting x then y then z, each in
// a single all-to-all hop.
func (h *HyperX) switchPath(ss, ds int, buf []int) ([]int, error) {
	sx, sy, sz := h.switchCoords(ss)
	dx, dy, dz := h.switchCoords(ds)
	if sx != dx {
		line := sz*h.s2 + sy
		buf = append(buf, int(h.dimLink[0][(line*h.s1+sx)*h.s1+dx]))
	}
	if sy != dy {
		line := sz*h.s1 + dx
		buf = append(buf, int(h.dimLink[1][(line*h.s2+sy)*h.s2+dy]))
	}
	if sz != dz {
		line := dy*h.s1 + dx
		buf = append(buf, int(h.dimLink[2][(line*h.s3+sz)*h.s3+dz]))
	}
	return buf, nil
}

var _ Topology = (*HyperX)(nil)
