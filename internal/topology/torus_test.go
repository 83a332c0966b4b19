package topology

import (
	"math/rand"
	"testing"
)

func TestNewTorusValidation(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-2, 2, 2}} {
		if _, err := NewTorus(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("NewTorus%v should fail", dims)
		}
	}
}

func TestTorusBasicProperties(t *testing.T) {
	tor, err := NewTorus(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Nodes() != 24 || tor.NumVertices() != 24 {
		t.Fatalf("Nodes=%d NumVertices=%d", tor.Nodes(), tor.NumVertices())
	}
	if tor.Kind() != "torus" || tor.Name() != "torus(4,3,2)" {
		t.Fatalf("Kind=%q Name=%q", tor.Kind(), tor.Name())
	}
	x, y, z := tor.Dims()
	if x != 4 || y != 3 || z != 2 {
		t.Fatalf("Dims = %d,%d,%d", x, y, z)
	}
	// Link count: dims > 2 contribute nodes links, dim == 2 contributes
	// nodes/2. x=4: 24; y=3: 24; z=2: 12 -> 60.
	if got := len(tor.Links()); got != 60 {
		t.Fatalf("links = %d, want 60", got)
	}
	for _, c := range tor.LinkClasses() {
		if c != ClassLocal {
			t.Fatal("all torus links must be local")
		}
	}
}

func TestTorusLinkCountPerPaper(t *testing.T) {
	// The paper counts three links per node for the torus (one per
	// dimension); that holds exactly when all dimensions are > 2.
	tor, err := NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tor.Links()), 3*64; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestTorusDegreeSix(t *testing.T) {
	tor, _ := NewTorus(3, 3, 3)
	g, err := GraphOf(tor)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tor.NumVertices(); v++ {
		deg, err := g.Degree(v)
		if err != nil {
			t.Fatal(err)
		}
		if deg != 6 {
			t.Fatalf("vertex %d degree = %d, want 6", v, deg)
		}
	}
}

func TestTorusDimensionOfSizeOne(t *testing.T) {
	tor, err := NewTorus(5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 5x1x1 torus is a 5-ring: 5 links.
	if got := len(tor.Links()); got != 5 {
		t.Fatalf("links = %d, want 5", got)
	}
	if tor.HopCount(0, 4) != 1 { // wrap-around
		t.Fatalf("HopCount(0,4) = %d, want 1", tor.HopCount(0, 4))
	}
	if tor.HopCount(0, 2) != 2 {
		t.Fatalf("HopCount(0,2) = %d, want 2", tor.HopCount(0, 2))
	}
}

func TestTorusHopCountKnownValues(t *testing.T) {
	tor, _ := NewTorus(4, 4, 4)
	cases := []struct {
		src, dst, want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wrap in x
		{0, 2, 2},  // halfway around x ring
		{0, 4, 1},  // +y neighbor
		{0, 16, 1}, // +z neighbor
		{0, 21, 3}, // (1,1,1): 1+1+1
		{0, 42, 6}, // (2,2,2): 2+2+2 = diameter
	}
	for _, c := range cases {
		if got := tor.HopCount(c.src, c.dst); got != c.want {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestTorusHopCountSymmetric(t *testing.T) {
	tor, _ := NewTorus(5, 4, 3)
	for src := 0; src < tor.Nodes(); src++ {
		for dst := src + 1; dst < tor.Nodes(); dst++ {
			if tor.HopCount(src, dst) != tor.HopCount(dst, src) {
				t.Fatalf("asymmetric hop count %d<->%d", src, dst)
			}
		}
	}
}

func TestTorusConnected(t *testing.T) {
	for _, dims := range [][3]int{{2, 2, 2}, {3, 2, 2}, {5, 4, 3}, {1, 1, 1}, {7, 1, 2}} {
		tor, err := NewTorus(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		g, err := GraphOf(tor)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := g.Connected()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("torus%v not connected", dims)
		}
	}
}

func TestTorusRouteOutOfRange(t *testing.T) {
	tor, _ := NewTorus(2, 2, 2)
	if _, err := tor.Route(-1, 0, nil); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := tor.Route(0, 8, nil); err == nil {
		t.Fatal("dst out of range accepted")
	}
}

func TestTorusRouteSelfIsEmpty(t *testing.T) {
	tor, _ := NewTorus(3, 3, 3)
	path, err := tor.Route(13, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 0 {
		t.Fatalf("self route has %d links", len(path))
	}
}

// validatePath checks that a link path is contiguous from src to dst.
func validatePath(t *testing.T, topo Topology, src, dst int, path []int) {
	t.Helper()
	links := topo.Links()
	cur := src
	for i, li := range path {
		if li < 0 || li >= len(links) {
			t.Fatalf("path[%d] = %d out of range", i, li)
		}
		l := links[li]
		switch cur {
		case l.A:
			cur = l.B
		case l.B:
			cur = l.A
		default:
			t.Fatalf("path[%d] link %d-%d does not touch current vertex %d", i, l.A, l.B, cur)
		}
	}
	if cur != dst {
		t.Fatalf("path ends at %d, want %d", cur, dst)
	}
}

// verifyRoutingAgainstBFS checks, for every (or a sampled subset of) node
// pair: HopCount equals the BFS shortest-path distance on the explicit
// graph, and Route produces a contiguous path of exactly that length.
func verifyRoutingAgainstBFS(t *testing.T, topo Topology, sample int) {
	t.Helper()
	g, err := GraphOf(topo)
	if err != nil {
		t.Fatal(err)
	}
	n := topo.Nodes()
	srcs := make([]int, 0, n)
	if sample <= 0 || sample >= n {
		for i := 0; i < n; i++ {
			srcs = append(srcs, i)
		}
	} else {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < sample; i++ {
			srcs = append(srcs, rng.Intn(n))
		}
	}
	var buf []int
	for _, src := range srcs {
		dist, err := g.BFSFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		for dst := 0; dst < n; dst++ {
			want := dist[dst]
			if got := topo.HopCount(src, dst); got != want {
				t.Fatalf("%s: HopCount(%d,%d) = %d, BFS = %d", topo.Name(), src, dst, got, want)
			}
			buf, err = topo.Route(src, dst, buf)
			if err != nil {
				t.Fatalf("%s: Route(%d,%d): %v", topo.Name(), src, dst, err)
			}
			if len(buf) != want {
				t.Fatalf("%s: Route(%d,%d) length %d, want %d", topo.Name(), src, dst, len(buf), want)
			}
			validatePath(t, topo, src, dst, buf)
		}
	}
}

func TestTorusRoutingMatchesBFS(t *testing.T) {
	for _, dims := range [][3]int{{2, 2, 2}, {3, 2, 2}, {3, 3, 3}, {4, 4, 4}, {5, 4, 3}, {6, 1, 2}} {
		tor, err := NewTorus(dims[0], dims[1], dims[2])
		if err != nil {
			t.Fatal(err)
		}
		verifyRoutingAgainstBFS(t, tor, 0)
	}
}

func TestTorusRoutingMatchesBFSLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tor, err := NewTorus(8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	verifyRoutingAgainstBFS(t, tor, 20)
}

func TestRingDist(t *testing.T) {
	cases := []struct{ a, b, size, want int }{
		{0, 0, 5, 0}, {0, 1, 5, 1}, {0, 4, 5, 1}, {0, 2, 5, 2}, {0, 3, 5, 2},
		{1, 3, 4, 2}, {0, 2, 4, 2}, {3, 0, 4, 1},
	}
	for _, c := range cases {
		if got := ringDist(c.a, c.b, c.size); got != c.want {
			t.Errorf("ringDist(%d,%d,%d) = %d, want %d", c.a, c.b, c.size, got, c.want)
		}
	}
}

// TestRouteWalkMatchesRingDist pins the per-dimension walk: on a 1D ring
// of every small size, the route between any two coordinates uses exactly
// ringDist links.
func TestRouteWalkMatchesRingDist(t *testing.T) {
	for size := 1; size <= 7; size++ {
		tor, err := NewTorus(size, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf []int
		for a := 0; a < size; a++ {
			for b := 0; b < size; b++ {
				route, err := tor.Route(a, b, buf)
				if err != nil {
					t.Fatal(err)
				}
				buf = route
				if len(route) != ringDist(a, b, size) {
					t.Fatalf("route a=%d b=%d size=%d has %d links, want %d", a, b, size, len(route), ringDist(a, b, size))
				}
			}
		}
	}
}
