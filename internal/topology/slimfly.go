package topology

import (
	"fmt"
	"math/bits"
)

// SlimFly is the diameter-2 Slim Fly topology of Besta and Hoefler,
// built on the McKay–Miller–Širáň (MMS) graphs: for an odd prime power
// q = 4w ± 1 there are 2q² routers, arranged as two subgraphs of q²
// routers each, labeled (s, x, y) with s ∈ {0, 1} and x, y ∈ GF(q).
// With ξ a primitive element of GF(q) and the generator sets
//
//	X  = {±ξ^(2i)   : 0 ≤ i < w}
//	X' = {±ξ^(2i+1) : 0 ≤ i < w}
//
// the adjacency is
//
//	(0, x, y) ~ (0, x, y')  iff  y − y' ∈ X     (intra, ClassLocal)
//	(1, m, c) ~ (1, m, c')  iff  c − c' ∈ X'    (intra, ClassLocal)
//	(0, x, y) ~ (1, m, c)   iff  y = m·x + c    (cross, ClassGlobal)
//
// giving network degree k = (3q − δ)/2 and diameter 2 between routers.
// Each router hosts p compute nodes. Because the diameter is 2, a router
// distance is 0 for the same router, 1 for linked routers and 2
// otherwise, so routing needs only the routers' adjacency bitset;
// NewSlimFly checks the diameter when it builds one.
type SlimFly struct {
	fabric
	adj         adjacencyBits
	q, p, delta int
}

// NewSlimFly constructs the MMS Slim Fly for prime power q (odd, so
// q ≡ 1 or 3 (mod 4)) with p compute nodes per router.
func NewSlimFly(q, p int) (*SlimFly, error) {
	if p <= 0 {
		return nil, fmt.Errorf("topology: invalid slim fly parameters (q=%d,p=%d)", q, p)
	}
	if q%2 == 0 {
		return nil, fmt.Errorf("topology: slim fly needs an odd prime power q ≡ 1 or 3 (mod 4), got %d", q)
	}
	f, err := newGF(q)
	if err != nil {
		return nil, err
	}
	delta := slimFlyDelta(q)
	w := (q - delta) / 4

	// Generator sets as membership tables; both are closed under negation
	// by construction, so the intra-subgraph adjacency below is symmetric.
	inX := make([]bool, q)
	inXp := make([]bool, q)
	pw := 1 // ξ^0
	for i := 0; i < 2*w; i++ {
		in := inX
		if i%2 == 1 {
			in = inXp
		}
		in[pw] = true
		in[f.neg(pw)] = true
		pw = f.mul(pw, f.prim)
	}

	s := &SlimFly{q: q, p: p, delta: delta}
	s.initFabric(s, 2*q*q, p)
	sw := func(sub, a, b int) int { return sub*q*q + a*q + b }

	// Intra-subgraph links, unordered pairs in ascending (x, y, y') order.
	for sub := 0; sub < 2; sub++ {
		in := inX
		if sub == 1 {
			in = inXp
		}
		for x := 0; x < q; x++ {
			for y := 0; y < q; y++ {
				for y2 := y + 1; y2 < q; y2++ {
					if in[f.sub(y2, y)] {
						s.addSwitchLink(sw(sub, x, y), sw(sub, x, y2), ClassLocal)
					}
				}
			}
		}
	}
	// Cross links: (0, x, y) ~ (1, m, c) with c = y − m·x.
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for m := 0; m < q; m++ {
				s.addSwitchLink(sw(0, x, y), sw(1, m, f.sub(y, f.mul(m, x))), ClassGlobal)
			}
		}
	}
	s.adj = bitsOf(s.swAdj)
	if err := s.adj.checkDiameterTwo(s.Name(), s.swAdj); err != nil {
		return nil, err
	}
	return s, nil
}

// slimFlyDelta returns δ of field order q: 1 for q ≡ 1 (mod 4), -1 for
// q ≡ 3.
func slimFlyDelta(q int) int {
	if q%4 == 3 {
		return -1
	}
	return 1
}

// HopCount implements Topology: two terminal hops around the router
// distance, so 0, 2, 3 or 4.
func (s *SlimFly) HopCount(src, dst int) int {
	if src == dst {
		return 0
	}
	return s.switchDist(src/s.perSwitch, dst/s.perSwitch) + 2
}

// switchDist returns the router-graph distance between routers a and b,
// which the diameter bounds by 2.
func (s *SlimFly) switchDist(a, b int) int {
	switch {
	case a == b:
		return 0
	case s.adj.linked(a, b):
		return 1
	}
	return 2
}

// switchPath appends the router-to-router links of the route from router
// ss to router ds, taking the first distance-decreasing neighbor in link
// order at every router: the direct link when the two are linked,
// otherwise the link to the first neighbor linked to ds and on to ds.
func (s *SlimFly) switchPath(ss, ds int, buf []int) ([]int, error) {
	for cur := ss; cur != ds; {
		want := s.switchDist(cur, ds) - 1
		found := false
		for _, e := range s.swAdj[cur] {
			if s.switchDist(int(e.To), ds) == want {
				buf = append(buf, int(e.Link))
				cur = int(e.To)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("topology: %s dead end at router %d toward %d", s.Name(), cur, ds)
		}
	}
	return buf, nil
}

// Params returns (q, p).
func (s *SlimFly) Params() (q, p int) { return s.q, s.p }

// NetworkRadix returns the inter-router degree k = (3q − δ)/2; the full
// switch radix is k + p.
func (s *SlimFly) NetworkRadix() int { return (3*s.q - s.delta) / 2 }

// Name implements Topology.
func (s *SlimFly) Name() string { return fmt.Sprintf("slimfly(%d,%d)", s.q, s.p) }

// Kind implements Topology.
func (s *SlimFly) Kind() string { return "slimfly" }

var _ Topology = (*SlimFly)(nil)

// adjacencyBits is a switch graph as one bitset row per switch: bit t of
// row s is set when a link joins switches s and t. It answers "adjacent?"
// with one word read, which is all a diameter-2 graph's distances need.
type adjacencyBits struct {
	words int // uint64 words per row
	rows  []uint64
}

// bitsOf returns the bitset rows of a switch adjacency.
func bitsOf(adj Adjacency) adjacencyBits {
	b := adjacencyBits{words: (len(adj) + 63) / 64}
	b.rows = make([]uint64, len(adj)*b.words)
	for s, edges := range adj {
		row := b.row(s)
		for _, e := range edges {
			row[e.To/64] |= 1 << (e.To % 64)
		}
	}
	return b
}

func (b adjacencyBits) row(s int) []uint64 { return b.rows[s*b.words : (s+1)*b.words] }

// linked reports whether a link joins switches s and t.
func (b adjacencyBits) linked(s, t int) bool {
	return b.rows[s*b.words+t/64]&(1<<(t%64)) != 0
}

// checkDiameterTwo verifies that every switch of adj is at most two hops
// from every other, the premise of distance-by-adjacency routing: a
// switch's own bit, its row and its neighbors' rows must cover every
// switch. name labels the error, which names the first switch pair
// further apart.
func (b adjacencyBits) checkDiameterTwo(name string, adj Adjacency) error {
	n := len(adj)
	cover := make([]uint64, b.words)
	for s, edges := range adj {
		copy(cover, b.row(s))
		cover[s/64] |= 1 << (s % 64)
		for _, e := range edges {
			for w, r := range b.row(int(e.To)) {
				cover[w] |= r
			}
		}
		for w, got := range cover {
			want := ^uint64(0)
			if w == b.words-1 && n%64 != 0 {
				want = 1<<(n%64) - 1
			}
			if missing := want &^ got; missing != 0 {
				t := w*64 + bits.TrailingZeros64(missing)
				return fmt.Errorf("topology: %s switch graph has diameter above 2 (switch %d is more than 2 hops from switch %d)", name, t, s)
			}
		}
	}
	return nil
}
