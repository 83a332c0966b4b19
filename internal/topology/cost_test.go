package topology

import "testing"

// TestTorusCost checks the integrated-router accounting: every node is a
// router, a full 3D torus has 3N neighbor links, and ports count both
// link ends plus one injection port per node.
func TestTorusCost(t *testing.T) {
	tor, err := NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := CostOf(tor)
	n := tor.Nodes()
	if c.Switches != n {
		t.Errorf("torus switches = %d, want %d (one integrated router per node)", c.Switches, n)
	}
	if c.Links != 3*n {
		t.Errorf("torus links = %d, want %d", c.Links, 3*n)
	}
	if want := 2*c.Links + n; c.Ports != want {
		t.Errorf("torus ports = %d, want %d", c.Ports, want)
	}
}

// TestIndirectCostMatchesGraph pins the fat-tree and dragonfly Cost
// methods to the explicit graph: switch count is the vertex space beyond
// the nodes, links is the link list, and every counted port belongs to a
// switch endpoint.
func TestIndirectCostMatchesGraph(t *testing.T) {
	ft, err := NewFatTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []Topology{ft, df} {
		c := CostOf(topo)
		if want := topo.NumVertices() - topo.Nodes(); c.Switches != want {
			t.Errorf("%s switches = %d, want %d", topo.Name(), c.Switches, want)
		}
		if c.Links != len(topo.Links()) {
			t.Errorf("%s links = %d, want %d", topo.Name(), c.Links, len(topo.Links()))
		}
		ports := 0
		for _, l := range topo.Links() {
			if l.A >= topo.Nodes() {
				ports++
			}
			if l.B >= topo.Nodes() {
				ports++
			}
		}
		if c.Ports != ports {
			t.Errorf("%s ports = %d, want %d", topo.Name(), c.Ports, ports)
		}
		if c.Units() <= 0 {
			t.Errorf("%s cost units = %g, want > 0", topo.Name(), c.Units())
		}
	}
}

// TestCostOfWrapperFallsBack exercises the generic path for a Topology
// without its own Cost method (Valiant routing wraps a dragonfly).
func TestCostOfWrapperFallsBack(t *testing.T) {
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewValiant(df, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := CostOf(v), CostOf(df); got != want {
		t.Errorf("valiant CostOf = %+v, want the wrapped dragonfly's %+v", got, want)
	}
}

// TestMeshConfigBuild covers the design sweep's mesh kind end to end
// through Config.Build.
func TestMeshConfigBuild(t *testing.T) {
	cfg := Config{Kind: "mesh", Size: 27, Nodes: 27, X: 3, Y: 3, Z: 3}
	topo, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != "mesh" {
		t.Fatalf("built kind = %q, want mesh", topo.Kind())
	}
	if topo.Nodes() != 27 {
		t.Fatalf("mesh nodes = %d, want 27", topo.Nodes())
	}
	// A 3x3x3 mesh loses the wrap links: 3 dims x 2 faces x 9 = 54 fewer
	// endpoints than the torus' 81 links, i.e. 2*9*3 = 54 links.
	if got := len(topo.Links()); got != 54 {
		t.Fatalf("mesh links = %d, want 54", got)
	}
	if cfg.String() != "(3,3,3)" {
		t.Fatalf("mesh config string = %q", cfg.String())
	}
}
