package topology

import (
	"testing"
	"testing/quick"
)

// Property: for random torus dimensions and random node pairs, the route
// length always equals the analytic hop count, the hop count is symmetric,
// and the triangle inequality holds.
func TestTorusRouteHopConsistencyProperty(t *testing.T) {
	f := func(xr, yr, zr, ar, br, cr uint8) bool {
		x := 1 + int(xr)%6
		y := 1 + int(yr)%6
		z := 1 + int(zr)%6
		tor, err := NewTorus(x, y, z)
		if err != nil {
			return false
		}
		n := tor.Nodes()
		a := int(ar) % n
		b := int(br) % n
		c := int(cr) % n
		path, err := tor.Route(a, b, nil)
		if err != nil {
			return false
		}
		if len(path) != tor.HopCount(a, b) {
			return false
		}
		if tor.HopCount(a, b) != tor.HopCount(b, a) {
			return false
		}
		// Triangle inequality.
		return tor.HopCount(a, b) <= tor.HopCount(a, c)+tor.HopCount(c, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random mesh dimensions, mesh hop counts dominate the
// torus's for the same pair (removing wrap links can only lengthen paths).
func TestMeshDominatesTorusProperty(t *testing.T) {
	f := func(xr, yr, zr, ar, br uint8) bool {
		x := 1 + int(xr)%5
		y := 1 + int(yr)%5
		z := 1 + int(zr)%5
		mesh, err := NewMesh(x, y, z)
		if err != nil {
			return false
		}
		tor, err := NewTorus(x, y, z)
		if err != nil {
			return false
		}
		n := mesh.Nodes()
		a := int(ar) % n
		b := int(br) % n
		return mesh.HopCount(a, b) >= tor.HopCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: random balanced dragonflies have exactly one global link per
// group pair and all hop counts within [2,5] (0 for self).
func TestDragonflyStructureProperty(t *testing.T) {
	f := func(hr, ar, br uint8) bool {
		h := 1 + int(hr)%4
		a := 2 * h
		p := h
		d, err := NewDragonfly(a, h, p)
		if err != nil {
			return false
		}
		// Group-pair coverage.
		g := d.Groups()
		pairs := map[[2]int]int{}
		classes := d.LinkClasses()
		for i, l := range d.Links() {
			if classes[i] != ClassGlobal {
				continue
			}
			g1 := (l.A - d.Nodes()) / a
			g2 := (l.B - d.Nodes()) / a
			pairs[pairKey(g1, g2)]++
		}
		if len(pairs) != g*(g-1)/2 {
			return false
		}
		for _, c := range pairs {
			if c != 1 {
				return false
			}
		}
		n := d.Nodes()
		s := int(ar) % n
		e := int(br) % n
		hc := d.HopCount(s, e)
		if s == e {
			return hc == 0
		}
		return hc >= 2 && hc <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: fat-tree hop counts are always even (up-down routing) and
// bounded by twice the stage count.
func TestFatTreeHopParityProperty(t *testing.T) {
	f := func(radixRaw, stagesRaw, ar, br uint8) bool {
		radix := 4 + 2*(int(radixRaw)%6) // 4..14 even
		stages := 1 + int(stagesRaw)%3
		ft, err := NewFatTree(radix, stages)
		if err != nil {
			return false
		}
		n := ft.Nodes()
		a := int(ar) % n
		b := int(br) % n
		hc := ft.HopCount(a, b)
		if a == b {
			return hc == 0
		}
		return hc%2 == 0 && hc >= 2 && hc <= 2*stages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// familyCases instantiates one representative of every topology family,
// paired with its declared switch radix (the maximum ports any vertex may
// use) and its nodes per switch k (0 on the direct torus and mesh).
// Future families added here are covered by the invariant suite below by
// construction.
func familyCases(t *testing.T) []struct {
	topo      Topology
	radix     int
	perSwitch int
} {
	t.Helper()
	tor, err := NewTorus(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := NewMesh(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := NewFatTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewSlimFly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := NewJellyfish(12, 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	hx, err := NewHyperX(3, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		topo      Topology
		radix     int
		perSwitch int
	}{
		{tor, 6, 0},                    // ≤ 6 neighbor links, integrated router
		{mesh, 6, 0},                   //
		{ft, 8, 4},                     // the constructed switch radix; radix/2 nodes per leaf
		{df, (4 - 1) + 2 + 2, 2},       // (a-1) local + h global + p terminals
		{sf, sf.NetworkRadix() + 2, 2}, // k inter-router + p terminals
		{jf, 4 + 2, 2},                 // r inter-switch + p terminals
		{hx, hx.NetworkRadix() + 2, 2}, // per-dim all-to-all + t terminals
	}
}

// The package's BFS over AdjacencyOf equals the reference Graph's from
// every vertex of every family, with one distance row and queue reused
// across sources; each vertex's edges are its links in ascending order.
func TestAdjacencyBFSMatchesGraph(t *testing.T) {
	for _, tc := range familyCases(t) {
		topo := tc.topo
		g, err := GraphOf(topo)
		if err != nil {
			t.Fatal(err)
		}
		adj := AdjacencyOf(topo)
		links := topo.Links()
		for v, edges := range adj {
			for i, e := range edges {
				l := links[e.Link]
				if (l.A != v || l.B != int(e.To)) && (l.B != v || l.A != int(e.To)) {
					t.Fatalf("%s: vertex %d edge %+v does not match link %+v", topo.Name(), v, e, l)
				}
				if i > 0 && edges[i-1].Link >= e.Link {
					t.Fatalf("%s: vertex %d edges out of link order: %+v", topo.Name(), v, edges)
				}
			}
		}
		dist := make([]int16, topo.NumVertices())
		var queue []int32
		for src := 0; src < topo.NumVertices(); src++ {
			if queue, err = adj.BFS(src, dist, queue); err != nil {
				t.Fatal(err)
			}
			want, err := g.BFSFrom(src)
			if err != nil {
				t.Fatal(err)
			}
			for v, d := range want {
				if int(dist[v]) != d {
					t.Fatalf("%s: BFS from %d reaches %d in %d hops, Graph in %d", topo.Name(), src, v, dist[v], d)
				}
			}
		}
	}
}

// Invariant suite over every family: Route length == HopCount == BFS
// distance with Route a contiguous walk, hop counts symmetric and obeying
// the triangle inequality, vertex degrees within the declared radix,
// LinkClasses() partitioning exactly Links(), and on the indirect
// families the block layout: link v is node v's terminal link to the
// switch at vertex Nodes()+v/k.
func TestAllFamiliesRoutingInvariants(t *testing.T) {
	for _, tc := range familyCases(t) {
		topo := tc.topo
		t.Run(topo.Name(), func(t *testing.T) {
			g, err := GraphOf(topo)
			if err != nil {
				t.Fatal(err)
			}
			n := topo.Nodes()

			// Link classes partition the link list.
			classes := topo.LinkClasses()
			if len(classes) != len(topo.Links()) {
				t.Fatalf("%d classes for %d links", len(classes), len(topo.Links()))
			}
			counts := map[LinkClass]int{}
			for _, c := range classes {
				counts[c]++
			}
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != len(topo.Links()) {
				t.Fatalf("class counts sum to %d, want %d", total, len(topo.Links()))
			}

			// Nodes in contiguous blocks of k, one block per switch.
			if k := tc.perSwitch; k > 0 {
				for v := 0; v < n; v++ {
					want := Link{A: v, B: n + v/k}
					if l := topo.Links()[v]; l != want || classes[v] != ClassTerminal {
						t.Fatalf("link %d is %+v (%s), want node %d's terminal link %+v", v, l, classes[v], v, want)
					}
				}
			}

			// Degrees within the declared radix.
			for v := 0; v < topo.NumVertices(); v++ {
				deg, err := g.Degree(v)
				if err != nil {
					t.Fatal(err)
				}
				if deg > tc.radix {
					t.Fatalf("vertex %d degree %d exceeds declared radix %d", v, deg, tc.radix)
				}
			}

			// All-pairs: Route/HopCount/BFS parity and walk validity.
			hop := make([][]int, n)
			links := topo.Links()
			var buf []int
			for s := 0; s < n; s++ {
				dist, err := g.BFSFrom(s)
				if err != nil {
					t.Fatal(err)
				}
				hop[s] = make([]int, n)
				for d := 0; d < n; d++ {
					h := topo.HopCount(s, d)
					hop[s][d] = h
					if h != dist[d] {
						t.Fatalf("HopCount(%d,%d)=%d, BFS=%d", s, d, h, dist[d])
					}
					buf, err = topo.Route(s, d, buf)
					if err != nil {
						t.Fatal(err)
					}
					if len(buf) != h {
						t.Fatalf("Route(%d,%d) length %d, HopCount %d", s, d, len(buf), h)
					}
					cur := s
					for _, li := range buf {
						l := links[li]
						switch cur {
						case l.A:
							cur = l.B
						case l.B:
							cur = l.A
						default:
							t.Fatalf("Route(%d,%d): link %d (%d-%d) does not touch %d", s, d, li, l.A, l.B, cur)
						}
					}
					if cur != d {
						t.Fatalf("Route(%d,%d) ends at %d", s, d, cur)
					}
				}
			}

			// Symmetry and the triangle inequality (strided third point to
			// bound the cubic loop).
			step := 1 + n/24
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if hop[a][b] != hop[b][a] {
						t.Fatalf("HopCount(%d,%d)=%d but HopCount(%d,%d)=%d", a, b, hop[a][b], b, a, hop[b][a])
					}
					for c := 0; c < n; c += step {
						if hop[a][b] > hop[a][c]+hop[c][b] {
							t.Fatalf("triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
								a, b, hop[a][b], a, c, c, b, hop[a][c]+hop[c][b])
						}
					}
				}
			}
		})
	}
}

// The two facts Greedy and PathStats build on. On every family, nodes
// split into BlockSize blocks (each case's nodes per switch, one node on
// the torus and mesh, a leaf's nodes on the fat tree and every node at
// one stage) whose nodes have equal HopCount to every other node; and a
// torus or mesh HopCount is the sum of its axis distances, weighted or
// not. Valiant shares its dragonfly's router blocks but not their hop
// counts, so its blocks are single nodes: with the dragonfly's the rule
// breaks.
func TestBlockAndAxisHopCounts(t *testing.T) {
	type blockCase struct {
		topo Topology
		size int
	}
	var cases []blockCase
	for _, tc := range familyCases(t) {
		cases = append(cases, blockCase{tc.topo, max(tc.perSwitch, 1)})
	}
	for _, c := range []struct{ radix, stages, size int }{{6, 1, 6}, {6, 3, 3}} {
		ft, err := NewFatTree(c.radix, c.stages)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, blockCase{ft, c.size})
	}
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	val, err := NewValiant(df, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, blockCase{val, 1})
	for _, c := range cases {
		if b := BlockSize(c.topo); b != c.size {
			t.Errorf("%s: BlockSize %d, want %d", c.topo.Name(), b, c.size)
		}
		if broken := blockRuleBreaks(t, c.topo, c.size); broken != 0 {
			t.Errorf("%s: %d (node, third node) pairs break the block rule at block size %d", c.topo.Name(), broken, c.size)
		}
		tor, ok := c.topo.(*Torus)
		if !ok {
			continue
		}
		n := tor.Nodes()
		row, weighted := tor.AxisRow(), tor.AxisRow()
		for d := 0; d < n; d++ {
			clear(row)
			tor.AddAxisDistances(row, d, 1)
			tor.AddAxisDistances(weighted, d, uint64(d+1))
			for s := 0; s < n; s++ {
				if got, want := tor.AxisSum(row, s), uint64(tor.HopCount(s, d)); got != want {
					t.Fatalf("%s: axis distances from %d to %d sum to %d, HopCount %d", tor.Name(), s, d, got, want)
				}
			}
		}
		for s := 0; s < n; s++ {
			var want uint64
			for d := 0; d < n; d++ {
				want += uint64(d+1) * uint64(tor.HopCount(s, d))
			}
			if got := tor.AxisSum(weighted, s); got != want {
				t.Fatalf("%s: weighted axis sum at %d is %d, weighted hops %d", tor.Name(), s, got, want)
			}
		}
	}
	if broken := blockRuleBreaks(t, val, BlockSize(df)); broken == 0 {
		t.Errorf("%s keeps the block rule at its dragonfly's block size %d: the exclusion is not needed", val.Name(), BlockSize(df))
	}
}

// blockRuleBreaks counts the (node, third node) pairs at which a node's
// HopCount, either way, differs from the first node's of its block.
func blockRuleBreaks(t *testing.T, topo Topology, size int) int {
	t.Helper()
	n := topo.Nodes()
	if n%size != 0 {
		t.Fatalf("%s: %d nodes do not split into blocks of %d", topo.Name(), n, size)
	}
	broken := 0
	for u := 0; u < n; u++ {
		first := u - u%size
		for w := 0; w < n; w++ {
			if w != u && w != first && (topo.HopCount(u, w) != topo.HopCount(first, w) || topo.HopCount(w, u) != topo.HopCount(w, first)) {
				broken++
			}
		}
	}
	return broken
}

// Property: every topology's Diameter bounds all pairwise hop counts and
// is attained by some pair.
func TestDiameterProperty(t *testing.T) {
	builds := []func() (Topology, error){
		func() (Topology, error) { return NewTorus(4, 3, 2) },
		func() (Topology, error) { return NewMesh(3, 3, 2) },
		func() (Topology, error) { return NewFatTree(8, 2) },
		func() (Topology, error) { return NewDragonfly(4, 2, 2) },
		func() (Topology, error) { return NewSlimFly(5, 2) },
		func() (Topology, error) { return NewJellyfish(12, 4, 2, 7) },
		func() (Topology, error) { return NewHyperX(3, 3, 2, 2) },
	}
	for _, build := range builds {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		diam := Diameter(topo)
		attained := false
		for s := 0; s < topo.Nodes(); s++ {
			for d := 0; d < topo.Nodes(); d++ {
				h := topo.HopCount(s, d)
				if h > diam {
					t.Fatalf("%s: hop count %d exceeds diameter %d", topo.Name(), h, diam)
				}
				if h == diam {
					attained = true
				}
			}
		}
		if !attained {
			t.Fatalf("%s: diameter %d never attained", topo.Name(), diam)
		}
	}
}
