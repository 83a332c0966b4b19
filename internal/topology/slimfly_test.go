package topology

import (
	"reflect"
	"testing"
)

// The MMS construction must hit diameter 2 on the router graph for every
// ladder field order (that is the whole point of the family). Checking the
// router graph directly keeps this affordable up to q=25 (1250 routers).
func TestSlimFlyRouterDiameterTwo(t *testing.T) {
	for _, q := range SlimFlyQLadder {
		s, err := NewSlimFly(q, 1)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if d := s.switchDiameter(); d != 2 {
			t.Errorf("q=%d: router-graph diameter %d, want 2", q, d)
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
