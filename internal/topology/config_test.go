package topology

import "testing"

// TestConfigsMatchTable2 verifies every row of the paper's Table 2.
func TestConfigsMatchTable2(t *testing.T) {
	rows := []struct {
		size               int
		tx, ty, tz, tNodes int
		stages, ftNodes    int
		a, h, p, dfNodes   int
	}{
		{8, 2, 2, 2, 8, 1, 48, 4, 2, 2, 72},
		{9, 3, 2, 2, 12, 1, 48, 4, 2, 2, 72},
		{10, 3, 2, 2, 12, 1, 48, 4, 2, 2, 72},
		{18, 3, 3, 2, 18, 1, 48, 4, 2, 2, 72},
		{27, 3, 3, 3, 27, 1, 48, 4, 2, 2, 72},
		{64, 4, 4, 4, 64, 2, 576, 4, 2, 2, 72},
		{100, 5, 5, 4, 100, 2, 576, 6, 3, 3, 342},
		{125, 5, 5, 5, 125, 2, 576, 6, 3, 3, 342},
		{144, 6, 6, 4, 144, 2, 576, 6, 3, 3, 342},
		{168, 7, 6, 4, 168, 2, 576, 6, 3, 3, 342},
		{216, 6, 6, 6, 216, 2, 576, 6, 3, 3, 342},
		{256, 8, 8, 4, 256, 2, 576, 6, 3, 3, 342},
		{512, 8, 8, 8, 512, 2, 576, 8, 4, 4, 1056},
		{1000, 10, 10, 10, 1000, 3, 13824, 8, 4, 4, 1056},
		{1024, 16, 8, 8, 1024, 3, 13824, 8, 4, 4, 1056},
		{1152, 12, 12, 8, 1152, 3, 13824, 10, 5, 5, 2550},
		{1728, 12, 12, 12, 1728, 3, 13824, 10, 5, 5, 2550},
	}
	for _, r := range rows {
		tor, ft, df, err := Configs(r.size)
		if err != nil {
			t.Fatalf("Configs(%d): %v", r.size, err)
		}
		if tor.X != r.tx || tor.Y != r.ty || tor.Z != r.tz || tor.Nodes != r.tNodes {
			t.Errorf("size %d torus = %s/%d, want (%d,%d,%d)/%d",
				r.size, tor, tor.Nodes, r.tx, r.ty, r.tz, r.tNodes)
		}
		if ft.Stages != r.stages || ft.Nodes != r.ftNodes || ft.Radix != 48 {
			t.Errorf("size %d fattree = %s/%d, want (48,%d)/%d",
				r.size, ft, ft.Nodes, r.stages, r.ftNodes)
		}
		if df.A != r.a || df.H != r.h || df.P != r.p || df.Nodes != r.dfNodes {
			t.Errorf("size %d dragonfly = %s/%d, want (%d,%d,%d)/%d",
				r.size, df, df.Nodes, r.a, r.h, r.p, r.dfNodes)
		}
	}
}

func TestConfigBuild(t *testing.T) {
	tor, ft, df, err := Configs(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Config{tor, ft, df} {
		topo, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if topo.Nodes() != c.Nodes {
			t.Errorf("%s: built %d nodes, config says %d", c, topo.Nodes(), c.Nodes)
		}
		if topo.Nodes() < 64 {
			t.Errorf("%s: %d nodes cannot host 64 ranks", c, topo.Nodes())
		}
	}
}

func TestConfigBuildUnknownKind(t *testing.T) {
	if _, err := (Config{Kind: "mesh"}).Build(); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestConfigString(t *testing.T) {
	tor, ft, df, _ := Configs(1024)
	if tor.String() != "(16,8,8)" {
		t.Errorf("torus string = %s", tor)
	}
	if ft.String() != "(48,3)" {
		t.Errorf("fattree string = %s", ft)
	}
	if df.String() != "(8,4,4)" {
		t.Errorf("dragonfly string = %s", df)
	}
	if (Config{Kind: "x"}).String() != "?" {
		t.Error("unknown kind string")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := TorusConfig(0); err == nil {
		t.Error("TorusConfig(0) should fail")
	}
	if _, err := FatTreeConfig(-1); err == nil {
		t.Error("FatTreeConfig(-1) should fail")
	}
	if _, err := DragonflyConfig(0); err == nil {
		t.Error("DragonflyConfig(0) should fail")
	}
	if _, err := FatTreeConfig(20000); err == nil {
		t.Error("oversized fat tree should fail")
	}
	if _, err := DragonflyConfig(1 << 20); err == nil {
		t.Error("oversized dragonfly should fail")
	}
}

func TestTorusConfigGenericSizes(t *testing.T) {
	// Non-table sizes get a near-cubic cover.
	for _, n := range []int{1, 2, 5, 50, 300, 777} {
		c, err := TorusConfig(n)
		if err != nil {
			t.Fatalf("TorusConfig(%d): %v", n, err)
		}
		if c.Nodes < n {
			t.Errorf("TorusConfig(%d): %d nodes < ranks", n, c.Nodes)
		}
		if c.X < c.Y || c.Y < c.Z {
			t.Errorf("TorusConfig(%d): dims not ordered: %s", n, c)
		}
		if c.X*c.Y*c.Z != c.Nodes {
			t.Errorf("TorusConfig(%d): volume mismatch", n)
		}
		if c.Z >= 1 && c.X > 2*c.Z && n > 2 {
			t.Errorf("TorusConfig(%d): aspect too skewed: %s", n, c)
		}
	}
}

func TestNearCubicMatchesPaperChoices(t *testing.T) {
	// The generic algorithm reproduces most Table 2 torus entries on its
	// own (the table is also hardcoded for exact fidelity).
	for _, c := range []struct{ n, x, y, z int }{
		{8, 2, 2, 2}, {27, 3, 3, 3}, {64, 4, 4, 4}, {100, 5, 5, 4},
		{125, 5, 5, 5}, {144, 6, 6, 4}, {168, 7, 6, 4}, {216, 6, 6, 6},
		{512, 8, 8, 8}, {1000, 10, 10, 10}, {1728, 12, 12, 12},
	} {
		x, y, z, err := nearCubicDims(c.n)
		if err != nil {
			t.Fatalf("nearCubicDims(%d): %v", c.n, err)
		}
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("nearCubicDims(%d) = (%d,%d,%d), want (%d,%d,%d)", c.n, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	if len(sizes) != 17 {
		t.Fatalf("len = %d, want 17", len(sizes))
	}
	if sizes[0] != 8 || sizes[len(sizes)-1] != 1728 {
		t.Fatalf("range = %d..%d", sizes[0], sizes[len(sizes)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes not ascending")
		}
	}
}

func TestDragonflyLadderMonotone(t *testing.T) {
	prev := 0
	for _, c := range dragonflyLadder {
		a, h, p := c[0], c[1], c[2]
		if a != 2*h || a != 2*p {
			t.Errorf("ladder entry %v violates a=2h=2p", c)
		}
		nodes := a * p * (a*h + 1)
		if nodes <= prev {
			t.Errorf("ladder not increasing at %v", c)
		}
		prev = nodes
	}
}

// The extreme-scale family sizing must cover every paper rank count with
// a buildable config whose node count reaches the ranks.
func TestExtremeScaleConfigsCoverPaperSizes(t *testing.T) {
	type sizer struct {
		name string
		fn   func(int) (Config, error)
	}
	sizers := []sizer{
		{"slimfly", SlimFlyConfig},
		{"jellyfish", JellyfishConfig},
		{"hyperx", HyperXConfig},
	}
	for _, s := range sizers {
		for _, ranks := range PaperSizes() {
			c, err := s.fn(ranks)
			if err != nil {
				t.Fatalf("%s(%d): %v", s.name, ranks, err)
			}
			if c.Nodes < ranks {
				t.Fatalf("%s(%d): %d nodes < ranks", s.name, ranks, c.Nodes)
			}
			topo, err := c.Build()
			if err != nil {
				t.Fatalf("%s(%d): build: %v", s.name, ranks, err)
			}
			if topo.Nodes() != c.Nodes {
				t.Fatalf("%s(%d): built %d nodes, config says %d", s.name, ranks, topo.Nodes(), c.Nodes)
			}
			if topo.Kind() != c.Kind {
				t.Fatalf("%s(%d): kind %q vs %q", s.name, ranks, topo.Kind(), c.Kind)
			}
		}
		if _, err := s.fn(0); err == nil {
			t.Errorf("%s(0): expected error", s.name)
		}
		if _, err := s.fn(-5); err == nil {
			t.Errorf("%s(-5): expected error", s.name)
		}
	}
}

// String must render every structural parameter of the new kinds — the
// workcache keys built topologies by it.
func TestExtremeScaleConfigStrings(t *testing.T) {
	sf, err := SlimFlyConfig(64)
	if err != nil {
		t.Fatal(err)
	}
	if sf.String() != "(5,2)" {
		t.Errorf("slimfly string = %s", sf)
	}
	jf, err := JellyfishConfig(64)
	if err != nil {
		t.Fatal(err)
	}
	if jf.String() != "(16,8,4;1)" {
		t.Errorf("jellyfish string = %s", jf)
	}
	jf2 := jf
	jf2.Seed = 99
	if jf.String() == jf2.String() {
		t.Error("jellyfish string must include the seed")
	}
	hx, err := HyperXConfig(64)
	if err != nil {
		t.Fatal(err)
	}
	if hx.String() != "(4,4,1;4)" {
		t.Errorf("hyperx string = %s", hx)
	}
}

// Kinds lists every kind Build accepts, and each non-paper kind has a
// working zero-value rejection (no panics on an empty Config).
func TestKindsAllBuildable(t *testing.T) {
	for _, k := range Kinds() {
		if _, err := (Config{Kind: k}).Build(); err == nil {
			t.Errorf("kind %q: zero-value config should fail, not build", k)
		}
	}
}

// TestSwitchRadixMatchesBuiltPorts checks SwitchRadix, the radix the
// design search caps, against the built graphs: the most ports any switch
// uses, counting a torus or mesh router's injection port, is exactly the
// configuration's radix.
func TestSwitchRadixMatchesBuiltPorts(t *testing.T) {
	cfgs := []Config{
		{Kind: "torus", X: 4, Y: 4, Z: 3},
		{Kind: "mesh", X: 4, Y: 3, Z: 3},
		{Kind: "dragonfly", A: 6, H: 3, P: 2},
	}
	for _, ranks := range []int{48, 300, 1000} {
		for _, at := range []struct {
			size  func(ranks, param int) (Config, bool)
			param int
		}{{FatTreeAt, 24}, {SlimFlyAt, 13}, {JellyfishAt, 4}, {HyperXAt, 8}} {
			cfg, ok := at.size(ranks, at.param)
			if !ok {
				t.Fatalf("no configuration for %d ranks at parameter %d", ranks, at.param)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	for _, cfg := range cfgs {
		topo, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s%s: %v", cfg.Kind, cfg, err)
		}
		ports := make([]int, topo.NumVertices())
		for _, l := range topo.Links() {
			ports[l.A]++
			ports[l.B]++
		}
		first, inject := topo.Nodes(), 0
		if first == topo.NumVertices() { // routers are the nodes
			first, inject = 0, 1
		}
		most := 0
		for _, p := range ports[first:] {
			most = max(most, p+inject)
		}
		if most != cfg.SwitchRadix() {
			t.Errorf("%s%s: busiest switch uses %d ports, SwitchRadix %d", cfg.Kind, cfg, most, cfg.SwitchRadix())
		}
	}
}
