package congest

import (
	"reflect"
	"testing"

	"netloc/internal/topology"
)

// testTopos builds one small instance of each family, including the
// extreme-scale families: every routing policy (ECMP's flow hashing,
// Valiant's generic pivot) must work on them unmodified.
func testTopos(t *testing.T) map[string]topology.Topology {
	t.Helper()
	return map[string]topology.Topology{
		"torus":     torus(t, 4, 4, 1),
		"fattree":   fattree(t, 16),
		"dragonfly": dragonfly(t, 64),
		"slimfly":   slimfly(t, 5, 1),
		"jellyfish": jellyfish(t, 12, 4, 2, 7),
		"hyperx":    hyperx(t, 3, 3, 1, 2),
	}
}

// Every policy must produce a contiguous walk from source to
// destination on every topology family, for every node pair.
func TestRoutesAreValidWalks(t *testing.T) {
	for kind, topo := range testTopos(t) {
		st := &simState{busyUntil: make([]float64, len(topo.Links()))}
		for _, policy := range Policies() {
			rt, err := newRouter(policy, topo, hashSeed, st, 1e-7)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, policy, err)
			}
			n := topo.Nodes()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					path, _, err := rt.route(src, dst, src*n+dst, 0)
					if err != nil {
						t.Fatalf("%s/%s %d->%d: %v", kind, policy, src, dst, err)
					}
					checkPath(t, topo, src, dst, path)
				}
			}
		}
	}
}

// ECMP is flow-hashed: one flow always takes one path, while different
// flows spread over the equal-cost set.
func TestECMPFlowStickinessAndSpread(t *testing.T) {
	topo := torus(t, 4, 4, 1)
	rt, err := newECMPRouter(topo, hashSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Same flow, different messages: identical path.
	first, _, err := rt.route(0, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq < 8; seq++ {
		p, _, err := rt.route(0, 5, seq, float64(seq))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, p) {
			t.Fatalf("flow 0->5 path changed between messages: %v vs %v", first, p)
		}
	}
	// ECMP paths are shortest.
	if len(first) != topo.HopCount(0, 5) {
		t.Errorf("ecmp path length %d, want minimal %d", len(first), topo.HopCount(0, 5))
	}
	// Across the whole pair set, at least one flow must leave the
	// deterministic-minimal path (otherwise the hash spreads nothing).
	min := &minimalRouter{topo: topo}
	diverged := false
	for src := 0; src < topo.Nodes() && !diverged; src++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			if src == dst {
				continue
			}
			mp, _, err1 := min.route(src, dst, 0, 0)
			ep, _, err2 := rt.route(src, dst, 0, 0)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(mp, ep) {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("ecmp never diverged from the deterministic minimal path on a multipath torus")
	}
}

// The generic Valiant detour pivots deterministically and never pivots
// at an endpoint.
func TestValiantGenericPivotDeterministic(t *testing.T) {
	topo := torus(t, 4, 4, 1)
	a, err := newValiantRouter(topo, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newValiantRouter(topo, 7)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < topo.Nodes(); src++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			if src == dst {
				continue
			}
			if p := a.pivot(src, dst); p == src || p == dst {
				t.Fatalf("pivot(%d,%d) = endpoint %d", src, dst, p)
			}
			pa, da, err1 := a.route(src, dst, 0, 0)
			pb, db, err2 := b.route(src, dst, 0, 0)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(pa, pb) || da != db {
				t.Fatalf("same-seed valiant routes differ for %d->%d: %v vs %v", src, dst, pa, pb)
			}
		}
	}
}

// UGAL prefers minimal paths on an idle network and detours once the
// minimal path's links are backlogged.
func TestUGALAdaptsToBacklog(t *testing.T) {
	topo := dragonfly(t, 64)
	st := &simState{busyUntil: make([]float64, len(topo.Links()))}
	rt, err := newRouter(PolicyUGAL, topo, hashSeed, st, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	// An inter-group pair, so the Valiant path actually detours.
	src, dst := 0, topo.Nodes()-1
	min := &minimalRouter{topo: topo}
	minPath, _, err := min.route(src, dst, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Idle network: minimal wins.
	idle, detour, err := rt.route(src, dst, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if detour || !reflect.DeepEqual(idle, minPath) {
		t.Fatalf("idle ugal chose detour=%v path=%v, want minimal %v", detour, idle, minPath)
	}
	// Backlog every minimal link heavily: the Valiant path must win.
	for _, li := range minPath {
		st.busyUntil[li] = 1.0 // one full second of backlog each
	}
	_, detour, err = rt.route(src, dst, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !detour {
		t.Error("ugal stayed minimal with every minimal link backlogged")
	}
}
