package topology

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The MMS construction must hit diameter 2 on the router graph for every
// ladder field order (that is the whole point of the family). A BFS from
// every router of the router graph measures it, which stays affordable
// up to q=25 (1250 routers).
func TestSlimFlyRouterDiameterTwo(t *testing.T) {
	for _, q := range SlimFlyQLadder {
		s, err := NewSlimFly(q, 1)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		dist := make([]int16, len(s.swAdj))
		var queue []int32
		diameter := int16(0)
		for src := range s.swAdj {
			if queue, err = s.swAdj.BFS(src, dist, queue); err != nil {
				t.Fatal(err)
			}
			for dst, d := range dist {
				if d == -1 {
					t.Fatalf("q=%d: router %d unreachable from %d", q, dst, src)
				}
				diameter = max(diameter, d)
			}
		}
		if diameter != 2 {
			t.Errorf("q=%d: router-graph diameter %d, want 2", q, diameter)
		}
	}
}

// Slim Fly's distances assume diameter 2, so the check NewSlimFly runs
// must refuse a switch graph with a pair further apart: a 5-cycle
// (diameter 2) passes and loses that with one link removed, and so does
// a Slim Fly's own router graph.
func TestSlimFlyDiameterCheckRefusesLongerPaths(t *testing.T) {
	cycle := func(n int) Adjacency {
		adj := make(Adjacency, n)
		for i := 0; i < n; i++ {
			j := (i + 1) % n
			adj[i] = append(adj[i], Edge{To: int32(j), Link: int32(i)})
			adj[j] = append(adj[j], Edge{To: int32(i), Link: int32(i)})
		}
		return adj
	}
	// without returns adj less every link between a and b.
	without := func(adj Adjacency, a, b int32) Adjacency {
		out := make(Adjacency, len(adj))
		for v, edges := range adj {
			for _, e := range edges {
				if !(int32(v) == a && e.To == b || int32(v) == b && e.To == a) {
					out[v] = append(out[v], e)
				}
			}
		}
		return out
	}
	sf, err := NewSlimFly(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c5 := cycle(5)
	for _, tc := range []struct {
		name string
		adj  Adjacency
		ok   bool
	}{
		{"5-cycle", c5, true},
		{"5-cycle less a link", without(c5, 0, 1), false},
		{"slimfly(5,1)", sf.swAdj, true},
		{"slimfly(5,1) less a link", without(sf.swAdj, 0, sf.swAdj[0][0].To), false},
	} {
		err := bitsOf(tc.adj).checkDiameterTwo(tc.name, tc.adj)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "diameter above 2")) {
			t.Errorf("%s: check returned %v, want a diameter error", tc.name, err)
		}
	}
}

// Every router has exactly k = (3q-δ)/2 inter-router links plus p
// terminals, and the intra/cross links split local/global.
func TestSlimFlyStructure(t *testing.T) {
	for _, q := range []int{5, 7, 9, 11, 13} {
		p := 2
		s, err := NewSlimFly(q, p)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if got, want := s.Nodes(), 2*q*q*p; got != want {
			t.Fatalf("q=%d: %d nodes, want %d", q, got, want)
		}
		g, err := GraphOf(s)
		if err != nil {
			t.Fatal(err)
		}
		k := s.NetworkRadix()
		for sw := 0; sw < 2*q*q; sw++ {
			deg, err := g.Degree(s.Nodes() + sw)
			if err != nil {
				t.Fatal(err)
			}
			if deg != k+p {
				t.Fatalf("q=%d: router %d degree %d, want %d", q, sw, deg, k+p)
			}
		}
		var local, global, terminal int
		for _, c := range s.LinkClasses() {
			switch c {
			case ClassTerminal:
				terminal++
			case ClassLocal:
				local++
			case ClassGlobal:
				global++
			}
		}
		if terminal != s.Nodes() {
			t.Fatalf("q=%d: %d terminal links, want %d", q, terminal, s.Nodes())
		}
		if global != q*q*q {
			t.Fatalf("q=%d: %d cross links, want %d", q, global, q*q*q)
		}
		delta := 1
		if q%4 == 3 {
			delta = -1
		}
		// 2q² routers × (q-δ)/2 intra neighbors, halved for undirectedness.
		if want := q * q * (q - delta) / 2; local != want {
			t.Fatalf("q=%d: %d intra links, want %d", q, local, want)
		}
	}
}

// Same parameters build byte-identical graphs (the gf tables, generator
// sets, and link order are all canonical).
func TestSlimFlyDeterministic(t *testing.T) {
	a, err := NewSlimFly(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSlimFly(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Links(), b.Links()) {
		t.Fatal("links differ between identical constructions")
	}
	if !reflect.DeepEqual(a.LinkClasses(), b.LinkClasses()) {
		t.Fatal("link classes differ between identical constructions")
	}
}

func TestSlimFlyErrors(t *testing.T) {
	cases := []struct{ q, p int }{
		{4, 1},   // even q
		{8, 1},   // even prime power
		{15, 1},  // not a prime power
		{5, 0},   // no terminals
		{-3, 2},  // negative
		{601, 1}, // beyond maxGFOrder (prime, so the order check must fire)
	}
	for _, c := range cases {
		if _, err := NewSlimFly(c.q, c.p); err == nil {
			t.Errorf("NewSlimFly(%d,%d): expected error", c.q, c.p)
		}
	}
}

// Slim Fly routes on its adjacency bitset exactly as the BFS-table walk
// Jellyfish keeps: the same distance between every router pair and the
// same first distance-decreasing neighbor in link order at every step.
func TestSlimFlyRoutesMatchBFSTables(t *testing.T) {
	for _, q := range []int{5, 7, 9, 11} {
		sf, err := NewSlimFly(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		tables := &bfsTables{fabric: sf.fabric}
		if err := tables.finish(sf.Name()); err != nil {
			t.Fatal(err)
		}
		var got, want []int
		for ss := 0; ss < sf.switches; ss++ {
			for ds := 0; ds < sf.switches; ds++ {
				if d := sf.switchDist(ss, ds); d != int(tables.dist[ss][ds]) {
					t.Fatalf("q=%d: routers %d and %d are %d apart, BFS says %d", q, ss, ds, d, tables.dist[ss][ds])
				}
				if got, err = sf.switchPath(ss, ds, got[:0]); err != nil {
					t.Fatal(err)
				}
				if want, err = tables.switchPath(ss, ds, want[:0]); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("q=%d: route %d -> %d takes links %v, the BFS-table walk %v", q, ss, ds, got, want)
				}
			}
		}
	}
}
