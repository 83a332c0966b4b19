package topology

import "fmt"

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
// Each router hosts p compute nodes. Routing uses the shared fabric BFS
// distance tables (no analytic form is attempted); the package tests pin
// the router-graph diameter to 2 for every ladder parameter.
type SlimFly struct {
	fabric
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
	if err := s.finish(s.Name()); err != nil {
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
