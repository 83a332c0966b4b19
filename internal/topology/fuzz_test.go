package topology

import "testing"

// FuzzConfigBuild drives Config.Build with arbitrary parameters across
// every kind. The contract under test: invalid parameters surface as
// errors, never panics, and any successfully built topology satisfies the
// basic interface invariants (consistent node/vertex counts, classes
// parallel to links, working routes); a Slim Fly, whose distances rest on
// its diameter, also has every node pair's HopCount equal to a BFS over
// its links. FoldConfig folds the parameters into a modest range so a
// fuzzing run explores shapes rather than allocation limits; the
// constructors' own size caps are exercised directly by the error-path
// unit tests.
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

	f.Fuzz(func(t *testing.T, kindSel, a, b, c, d int, seed uint64) {
		cfg := FoldConfig(kindSel, a, b, c, d, seed)
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
		if sf, ok := topo.(*SlimFly); ok {
			checkHopsAgainstBFS(t, sf)
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

// checkHopsAgainstBFS compares the HopCount of every ordered pair of
// switched nodes with a BFS over the topology's links. A node's only link
// is its terminal link, so a BFS from each switch vertex gives the
// distance from each of its nodes to every other node, plus one.
func checkHopsAgainstBFS(t *testing.T, topo *SlimFly) {
	t.Helper()
	adj := AdjacencyOf(topo)
	dist := make([]int16, topo.NumVertices())
	var queue []int32
	var err error
	n, per := topo.Nodes(), topo.perSwitch
	for sw := 0; sw < topo.switches; sw++ {
		if queue, err = adj.BFS(n+sw, dist, queue); err != nil {
			t.Fatal(err)
		}
		for src := sw * per; src < (sw+1)*per; src++ {
			for dst := 0; dst < n; dst++ {
				want := 0
				if dst != src {
					want = int(dist[dst]) + 1
				}
				if got := topo.HopCount(src, dst); got != want {
					t.Fatalf("%s: HopCount(%d,%d) = %d, BFS over its links %d", topo.Name(), src, dst, got, want)
				}
			}
		}
	}
}
