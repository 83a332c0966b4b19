package topology

import (
	"reflect"
	"testing"
)

// The determinism contract of the tentpole: identical (S, r, p, seed)
// parameters must produce byte-identical link lists, because the
// workcache shares one built instance per Config String and the grid
// suites pin output across worker counts.
func TestJellyfishDeterministicLinks(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		a, err := NewJellyfish(16, 6, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := NewJellyfish(16, 6, 3, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a.Links(), b.Links()) {
			t.Fatalf("seed %d: links differ between identical constructions", seed)
		}
		if !reflect.DeepEqual(a.LinkClasses(), b.LinkClasses()) {
			t.Fatalf("seed %d: link classes differ", seed)
		}
	}
}

// Different seeds should (virtually always) wire different graphs — the
// seed is part of the structural identity.
func TestJellyfishSeedChangesWiring(t *testing.T) {
	a, err := NewJellyfish(16, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJellyfish(16, 6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Links(), b.Links()) {
		t.Fatal("seeds 1 and 2 produced identical wirings")
	}
}

// Every switch ends with exactly r inter-switch links and p terminals,
// no multi-edges, no self loops, and the switch graph is connected.
func TestJellyfishRegularity(t *testing.T) {
	cases := []struct {
		s, r, p int
		seed    uint64
	}{
		{8, 3, 2, 1},
		{16, 6, 3, 9},
		{25, 4, 1, 3},
		{40, 5, 2, 7},
	}
	for _, c := range cases {
		j, err := NewJellyfish(c.s, c.r, c.p, c.seed)
		if err != nil {
			t.Fatalf("jellyfish(%d,%d,%d;%d): %v", c.s, c.r, c.p, c.seed, err)
		}
		g, err := GraphOf(j) // NewGraph rejects self loops
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int]bool{}
		classes := j.LinkClasses()
		for i, l := range j.Links() {
			if classes[i] == ClassTerminal {
				continue
			}
			k := pairKey(l.A, l.B)
			if seen[k] {
				t.Fatalf("jellyfish(%d,%d,%d;%d): duplicate link %d-%d", c.s, c.r, c.p, c.seed, l.A, l.B)
			}
			seen[k] = true
		}
		for sw := 0; sw < c.s; sw++ {
			deg, err := g.Degree(j.Nodes() + sw)
			if err != nil {
				t.Fatal(err)
			}
			if deg != c.r+c.p {
				t.Fatalf("jellyfish(%d,%d,%d;%d): switch %d degree %d, want %d",
					c.s, c.r, c.p, c.seed, sw, deg, c.r+c.p)
			}
		}
		ok, err := g.Connected()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("jellyfish(%d,%d,%d;%d): disconnected", c.s, c.r, c.p, c.seed)
		}
	}
}

func TestJellyfishErrors(t *testing.T) {
	cases := []struct {
		s, r, p int
	}{
		{1, 1, 1},                        // too few switches
		{8, 0, 1},                        // zero degree
		{8, 8, 1},                        // degree > s-1
		{5, 3, 1},                        // odd port total
		{8, 3, 0},                        // no terminals
		{MaxJellyfishSwitches + 2, 2, 1}, // beyond the size cap
	}
	for _, c := range cases {
		if _, err := NewJellyfish(c.s, c.r, c.p, 1); err == nil {
			t.Errorf("NewJellyfish(%d,%d,%d): expected error", c.s, c.r, c.p)
		}
	}
}
