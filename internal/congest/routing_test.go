package congest

import (
	"reflect"
	"testing"

	"netloc/internal/simnet"
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

// pairsWire is one message for every ordered pair of distinct ranks, one
// rank per node under identity (see routed).
func pairsWire(nodes int) *simnet.Wire {
	w := &simnet.Wire{Ranks: nodes}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if src != dst {
				w.Messages = append(w.Messages, simnet.Message{Pair: int32(len(w.Pairs)), Bytes: 1})
				w.Pairs = append(w.Pairs, simnet.Pair{Src: int32(src), Dst: int32(dst)})
			}
		}
	}
	return w
}

// routed builds a replay of w under policy, rank r placed on node r.
func routed(t *testing.T, w *simnet.Wire, topo topology.Topology, policy string) *replay {
	t.Helper()
	opts, err := Options{Policy: policy}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(w, topo, consecutive(t, w.Ranks, topo.Nodes()), opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", topo.Kind(), policy, err)
	}
	return r
}

// links copies a routed path out of the replay's arena.
func (r *replay) links(p span) []int {
	path := make([]int, 0, p.hi-p.lo)
	for _, li := range r.arena[p.lo:p.hi] {
		path = append(path, int(li))
	}
	return path
}

// Every policy must route a contiguous walk from source to destination
// on every topology family, for every node pair: UGAL both of its
// candidates. Minimal and ECMP paths are shortest, so their length is
// HopCount.
func TestRoutesAreValidWalks(t *testing.T) {
	for kind, topo := range testTopos(t) {
		w := pairsWire(topo.Nodes())
		for _, policy := range Policies() {
			r := routed(t, w, topo, policy)
			if len(r.msgs) != len(w.Messages) {
				t.Fatalf("%s/%s: routed %d of %d messages", kind, policy, len(r.msgs), len(w.Messages))
			}
			for i, m := range r.msgs {
				p := w.Pairs[w.Messages[i].Pair]
				src, dst := int(p.Src), int(p.Dst)
				checkPath(t, topo, src, dst, r.links(m.path))
				if m.alt.hi > m.alt.lo {
					checkPath(t, topo, src, dst, r.links(m.alt))
				}
				if policy != PolicyMinimal && policy != PolicyECMP {
					continue
				}
				if n, want := int(m.path.hi-m.path.lo), topo.HopCount(src, dst); n != want {
					t.Fatalf("%s/%s %d->%d: path length %d, want HopCount %d", kind, policy, src, dst, n, want)
				}
			}
		}
	}
}

// ECMP is flow-hashed: one flow always takes one path, while different
// flows spread over the equal-cost set.
func TestECMPFlowStickinessAndSpread(t *testing.T) {
	topo := torus(t, 4, 4, 1)
	rt := newECMPRouter(topo, hashSeed)
	first, _, err := rt.route(0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Across the whole pair set, at least one flow must leave the
	// deterministic-minimal path (otherwise the hash spreads nothing).
	// Routing every other flow through one reused buffer must not
	// disturb flow 0->5's path.
	var buf []int
	diverged := false
	for src := 0; src < topo.Nodes(); src++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			if src == dst {
				continue
			}
			mp, err1 := topo.Route(src, dst, nil)
			var err2 error
			buf, _, err2 = rt.route(src, dst, buf)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(mp, buf) {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("ecmp never diverged from the deterministic minimal path on a multipath torus")
	}
	again, _, err := rt.route(0, 5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("flow 0->5 path changed between messages: %v vs %v", first, again)
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
			pa, da, err1 := a.route(src, dst, nil)
			pb, db, err2 := b.route(src, dst, nil)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(pa, pb) || da != db {
				t.Fatalf("same-seed valiant routes differ for %d->%d: %v vs %v", src, dst, pa, pb)
			}
		}
	}
}

// UGAL decides at injection: on an idle network it takes the minimal
// path, and once the minimal path's links are backlogged it detours.
func TestUGALAdaptsToBacklog(t *testing.T) {
	topo := dragonfly(t, 64)
	// An inter-group pair, so the Valiant path actually detours.
	src, dst := 0, topo.Nodes()-1
	w := &simnet.Wire{
		Ranks:    topo.Nodes(),
		Pairs:    []simnet.Pair{{Src: int32(src), Dst: int32(dst)}},
		Messages: []simnet.Message{{Pair: 0, Bytes: 4096}},
	}
	r := routed(t, w, topo, PolicyUGAL)
	m := &r.msgs[0]
	minPath, err := topo.Route(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.links(m.path); !reflect.DeepEqual(got, minPath) {
		t.Fatalf("ugal minimal candidate %v, want %v", got, minPath)
	}
	if m.alt.hi == m.alt.lo {
		t.Fatal("ugal has no Valiant candidate for an inter-group pair")
	}
	// Idle network: minimal wins.
	if p, detour := r.pathAt(m, 0, 1e-7); detour || p != m.path {
		t.Fatalf("idle ugal chose detour=%v path=%v, want minimal %v", detour, r.links(p), minPath)
	}
	// Backlog every minimal link heavily: the Valiant path must win.
	for _, li := range r.arena[m.path.lo:m.path.hi] {
		r.busyUntil[li] = 1.0 // one full second of backlog each
	}
	if p, detour := r.pathAt(m, 0, 1e-7); !detour || p != m.alt {
		t.Error("ugal stayed minimal with every minimal link backlogged")
	}
}
