package topology

import "testing"

// FuzzConfigBuild drives Config.Build with arbitrary parameters across
// every kind. The contract under test: invalid parameters surface as
// errors, never panics, and any successfully built topology satisfies the
// basic interface invariants (consistent node/vertex counts, classes
// parallel to links, working routes). Parameters are folded into a modest
// range so a fuzzing run explores shapes rather than allocation limits;
// the constructors' own size caps (maxGFOrder, MaxJellyfishSwitches,
// MaxHyperXSwitches) are exercised directly by the error-path unit tests.
func FuzzConfigBuild(f *testing.F) {
	// One well-formed and one degenerate seed per kind, plus cap probes.
	f.Add(0, 4, 3, 2, 1, uint64(0))     // torus(4,3,2)
	f.Add(1, 3, 3, 2, 1, uint64(0))     // mesh(3,3,2)
	f.Add(2, 8, 2, 0, 1, uint64(0))     // fattree(8,2)
	f.Add(3, 4, 2, 2, 1, uint64(0))     // dragonfly(4,2,2)
	f.Add(4, 5, 0, 2, 1, uint64(0))     // slimfly(5,2)
	f.Add(5, 12, 4, 2, 1, uint64(7))    // jellyfish(12,4,2;7)
	f.Add(6, 3, 4, 2, 2, uint64(0))     // hyperx(3,4,2;2)
	f.Add(4, 15, 0, 1, 1, uint64(0))    // slimfly: not a prime power
	f.Add(5, 5, 3, 1, 1, uint64(1))     // jellyfish: odd port total
	f.Add(6, 0, 2, 2, 1, uint64(0))     // hyperx: zero dimension
	f.Add(-1, 0, 0, 0, 0, uint64(0))    // unknown kind
	f.Add(3, -4, -2, -2, -1, uint64(0)) // negative params
	f.Add(2, 64, 9, 0, 0, uint64(0))    // fattree: stages out of range

	kinds := Kinds()
	clamp := func(v, m int) int {
		if v < 0 {
			return -(-v % m)
		}
		return v % m
	}
	f.Fuzz(func(t *testing.T, kindSel, a, b, c, d int, seed uint64) {
		cfg := Config{Kind: "unknown"}
		if kindSel >= 0 && kindSel < len(kinds) {
			cfg.Kind = kinds[kindSel]
		}
		a, b, c, d = clamp(a, 65), clamp(b, 65), clamp(c, 33), clamp(d, 17)
		switch cfg.Kind {
		case "torus", "mesh":
			cfg.X, cfg.Y, cfg.Z = a, b, c
		case "fattree":
			cfg.Radix, cfg.Stages = a, b
		case "dragonfly":
			cfg.A, cfg.H, cfg.P = clamp(a, 9), clamp(b, 9), c
		case "slimfly":
			cfg.Q, cfg.P = clamp(a, 33), clamp(d, 9)
		case "jellyfish":
			cfg.S, cfg.D, cfg.P, cfg.Seed = a, b, clamp(d, 9), seed
		case "hyperx":
			cfg.X, cfg.Y, cfg.Z, cfg.P = clamp(a, 17), clamp(b, 17), clamp(c, 9), clamp(d, 9)
		}
		topo, err := cfg.Build()
		if err != nil {
			return // rejected with a listing-style error — the success case
		}
		if topo.Nodes() <= 0 || topo.NumVertices() < topo.Nodes() {
			t.Fatalf("%s%s: nodes %d vertices %d", cfg.Kind, cfg, topo.Nodes(), topo.NumVertices())
		}
		if len(topo.Links()) != len(topo.LinkClasses()) {
			t.Fatalf("%s%s: %d links vs %d classes", cfg.Kind, cfg, len(topo.Links()), len(topo.LinkClasses()))
		}
		// Spot-check routing from both ends of the node range.
		n := topo.Nodes()
		for _, pair := range [][2]int{{0, n - 1}, {n - 1, 0}, {0, 0}, {n / 2, n - 1}} {
			path, err := topo.Route(pair[0], pair[1], nil)
			if err != nil {
				t.Fatalf("%s%s: Route(%d,%d): %v", cfg.Kind, cfg, pair[0], pair[1], err)
			}
			if len(path) != topo.HopCount(pair[0], pair[1]) {
				t.Fatalf("%s%s: Route(%d,%d) length %d != HopCount %d",
					cfg.Kind, cfg, pair[0], pair[1], len(path), topo.HopCount(pair[0], pair[1]))
			}
		}
		// Out-of-range endpoints must error, not panic.
		if _, err := topo.Route(-1, 0, nil); err == nil {
			t.Fatalf("%s%s: negative src accepted", cfg.Kind, cfg)
		}
		if _, err := topo.Route(0, n, nil); err == nil {
			t.Fatalf("%s%s: out-of-range dst accepted", cfg.Kind, cfg)
		}
	})
}
