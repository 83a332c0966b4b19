package congest

import (
	"fmt"

	"netloc/internal/topology"
)

// router computes one pair's link path. Paths depend only on the
// endpoints, never on the clock or on link state, so a replay routes
// each rank pair once, before its first run, and its messages share the
// path. Implementations are deterministic; they may keep reusable
// buffers, so each replay builds its own.
type router interface {
	// route returns the link path from node src to node dst, appended
	// to buf[:0] as topology.Route does, so a caller that copies the
	// path out can pass one buffer for every pair. detour reports a
	// non-minimal (Valiant) path.
	route(src, dst int, buf []int) (path []int, detour bool, err error)
}

// newRouter builds the router of a fixed-path policy. UGAL is not one:
// a replay routes its minimal and Valiant candidates and picks one at
// injection.
func newRouter(policy string, topo topology.Topology, seed uint64) (router, error) {
	switch policy {
	case PolicyMinimal:
		return &minimalRouter{topo: topo}, nil
	case PolicyECMP:
		return newECMPRouter(topo, seed), nil
	case PolicyValiant:
		return newValiantRouter(topo, seed)
	}
	return nil, fmt.Errorf("congest: no fixed-path router for policy %q", policy)
}

// minimalRouter replays the topology's own deterministic shortest path.
type minimalRouter struct {
	topo topology.Topology
}

func (r *minimalRouter) route(src, dst int, buf []int) ([]int, bool, error) {
	path, err := r.topo.Route(src, dst, buf)
	return path, false, err
}

// mix64 is the splitmix-style finalizer also used by the Valiant pivot
// hash: a cheap, well-distributed, seedable permutation of 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ecmpRouter spreads flows over the equal-cost shortest paths of the
// topology's link graph: at every vertex, the next hop among the
// distance-decreasing neighbors is picked by a per-(flow, vertex) hash —
// the stateless, deterministic spreading of flow-hashing switches. The
// BFS distance row toward each destination is filled on first use and
// reused across the run. Endpoints are nodes simnet.Wire.Place has
// checked against the topology.
type ecmpRouter struct {
	adj   topology.Adjacency
	seed  uint64
	dist  [][]int16 // destination node -> hop distance of every vertex
	queue []int32   // BFS scratch
}

func newECMPRouter(topo topology.Topology, seed uint64) *ecmpRouter {
	return &ecmpRouter{adj: topology.AdjacencyOf(topo), seed: seed, dist: make([][]int16, topo.Nodes())}
}

func (r *ecmpRouter) route(src, dst int, buf []int) ([]int, bool, error) {
	dist := r.dist[dst]
	if dist == nil {
		dist = make([]int16, len(r.adj))
		var err error
		if r.queue, err = r.adj.BFS(dst, dist, r.queue); err != nil {
			return nil, false, err
		}
		r.dist[dst] = dist
	}
	if dist[src] < 0 {
		return nil, false, fmt.Errorf("no path %d->%d", src, dst)
	}
	// One hash per flow: every message of a (src, dst) pair follows the
	// same path, load spreads across flows — classic ECMP, as opposed
	// to UGAL's per-message adaptivity.
	flow := mix64(uint64(src)<<32 ^ uint64(dst) ^ r.seed)
	path := buf[:0]
	cur := src
	for cur != dst {
		want := dist[cur] - 1
		n := 0
		for _, e := range r.adj[cur] {
			if dist[e.To] == want {
				n++
			}
		}
		if n == 0 {
			return nil, false, fmt.Errorf("BFS dead end at vertex %d toward %d", cur, dst)
		}
		pick := int(mix64(flow^uint64(cur)) % uint64(n))
		for _, e := range r.adj[cur] {
			if dist[e.To] != want {
				continue
			}
			if pick == 0 {
				path = append(path, int(e.Link))
				cur = int(e.To)
				break
			}
			pick--
		}
	}
	return path, false, nil
}

// valiantRouter routes via a deterministic pseudo-random intermediate.
// Dragonflies reuse topology/valiant.go's pivot-group machinery (the
// canonical Valiant scheme for that family); every other topology
// detours through a pivot node: minimal to the pivot, minimal onward.
type valiantRouter struct {
	topo    topology.Topology
	via     topology.Topology // dragonfly: the *topology.Valiant wrapper
	minimal topology.Topology // shortest-path reference for detour detection
	nodes   int
	seed    uint64
	leg     []int // reused buffer for the pivot-to-destination leg
}

func newValiantRouter(topo topology.Topology, seed uint64) (*valiantRouter, error) {
	r := &valiantRouter{topo: topo, minimal: topo, nodes: topo.Nodes(), seed: seed}
	switch d := topo.(type) {
	case *topology.Valiant:
		r.via = d
		r.minimal = d.Dragonfly
	case *topology.Dragonfly:
		v, err := topology.NewValiant(d, seed)
		if err != nil {
			return nil, err
		}
		r.via = v
	}
	return r, nil
}

// pivot picks the intermediate node for a pair: a deterministic
// pseudo-random node different from both endpoints.
func (r *valiantRouter) pivot(src, dst int) int {
	p := int(mix64(uint64(src)*0x9E3779B97F4A7C15^uint64(dst)+r.seed) % uint64(r.nodes))
	for p == src || p == dst {
		p = (p + 1) % r.nodes
	}
	return p
}

func (r *valiantRouter) route(src, dst int, buf []int) ([]int, bool, error) {
	if r.via != nil {
		path, err := r.via.Route(src, dst, buf)
		// The dragonfly wrapper detours only inter-group traffic; a
		// longer-than-minimal path is the observable detour signal.
		return path, err == nil && len(path) > r.minimal.HopCount(src, dst), err
	}
	if r.nodes < 3 {
		path, err := r.topo.Route(src, dst, buf)
		return path, false, err
	}
	p := r.pivot(src, dst)
	path, err := r.topo.Route(src, p, buf)
	if err != nil {
		return nil, false, err
	}
	if r.leg, err = r.topo.Route(p, dst, r.leg); err != nil {
		return nil, false, err
	}
	leg := r.leg
	// On indirect topologies both legs touch the pivot over its
	// terminal link; dropping the repeated pair turns around at the
	// pivot's switch instead of re-injecting through the node.
	if len(path) > 0 && len(leg) > 0 && path[len(path)-1] == leg[0] {
		path = path[:len(path)-1]
		leg = leg[1:]
	}
	return append(path, leg...), true, nil
}
