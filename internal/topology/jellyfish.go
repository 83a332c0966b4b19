package topology

import (
	"fmt"
	"sort"
)

// MaxJellyfishSwitches bounds the random-graph construction (the BFS
// distance tables are O(S²)). JellyfishConfig and the design enumerator
// refuse switch counts above it.
const MaxJellyfishSwitches = 4096

// Jellyfish is the random regular graph topology of Singla et al.: S
// switches, each with r ports wired to r distinct other switches chosen
// uniformly at random, and p compute nodes per switch. The appeal is
// incremental expandability plus near-optimal path diversity; here it
// doubles as the stress case for the repo's determinism contract, because
// "random" must still mean reproducible. The wiring is drawn from a
// seeded splitmix-style generator — the same (S, r, p, seed) Config
// always produces a byte-identical link list, so the workcache can share
// one built instance across goroutines and grid outputs stay pinned at
// every worker count.
//
// Construction is the standard Jellyfish pairing procedure: repeatedly
// join two random free ports on distinct, not-yet-adjacent switches;
// when no such pair remains, incorporate leftover free ports by breaking
// a random existing link (u with free ports takes over both ends). If
// the wiring exceeds its iteration budget or comes out disconnected, the
// next seed (seed+1, …) is tried, up to eight attempts, then an error is
// returned — never a panic.
type Jellyfish struct {
	fabric
	s, r, p int
	seed    uint64
}

// jfRand is a splitmix64 sequence — the same finalizer the Valiant pivot
// and ECMP hashes use, kept local so graph wiring never depends on
// math/rand internals.
type jfRand struct{ state uint64 }

func (r *jfRand) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant here —
// the draw only needs to be deterministic and well spread.
func (r *jfRand) intn(n int) int { return int(r.next() % uint64(n)) }

// NewJellyfish constructs a random regular graph of s switches with r
// inter-switch ports each and p compute nodes per switch, wired
// deterministically from seed.
func NewJellyfish(s, r, p int, seed uint64) (*Jellyfish, error) {
	if s < 2 || r < 1 || p < 1 {
		return nil, fmt.Errorf("topology: invalid jellyfish parameters (s=%d,r=%d,p=%d)", s, r, p)
	}
	if s > MaxJellyfishSwitches {
		return nil, fmt.Errorf("topology: jellyfish switch count %d exceeds the supported maximum %d", s, MaxJellyfishSwitches)
	}
	if r > s-1 {
		return nil, fmt.Errorf("topology: jellyfish degree %d exceeds switch count %d minus one", r, s)
	}
	if s*r%2 != 0 {
		return nil, fmt.Errorf("topology: jellyfish needs an even port total, got %d switches × degree %d", s, r)
	}
	for attempt := 0; attempt < 8; attempt++ {
		edges, ok := jellyfishWire(s, r, seed+uint64(attempt))
		if !ok {
			continue
		}
		j := &Jellyfish{s: s, r: r, p: p, seed: seed}
		j.initFabric(j, s, p)
		for _, e := range edges {
			j.addSwitchLink(e[0], e[1], ClassGlobal)
		}
		if err := j.finish(j.Name()); err != nil {
			continue // disconnected draw — retry with the next seed
		}
		return j, nil
	}
	return nil, fmt.Errorf("topology: jellyfish(%d,%d,%d;%d) produced no connected regular graph in 8 seeded attempts", s, r, p, seed)
}

// jellyfishWire draws one r-regular graph on s switches from the seed.
// The returned edge list is canonically sorted, so it (not the draw
// order) defines the link indices.
func jellyfishWire(s, r int, seed uint64) ([][2]int, bool) {
	rng := &jfRand{state: seed}
	budget := 50*s*r + 1000

	// One entry per free port, holding its switch.
	free := make([]int, 0, s*r)
	for i := 0; i < s; i++ {
		for k := 0; k < r; k++ {
			free = append(free, i)
		}
	}
	var edges [][2]int
	edgeAt := make(map[[2]int]int, s*r/2) // pair -> index into edges
	hasEdge := func(a, b int) bool { _, ok := edgeAt[pairKey(a, b)]; return ok }
	addEdge := func(a, b int) {
		k := pairKey(a, b)
		edgeAt[k] = len(edges)
		edges = append(edges, k)
	}
	dropEdge := func(i int) [2]int {
		e := edges[i]
		delete(edgeAt, e)
		last := len(edges) - 1
		if i != last {
			edges[i] = edges[last]
			edgeAt[edges[i]] = i
		}
		edges = edges[:last]
		return e
	}
	dropPorts := func(i, j int) { // remove two free-list entries by index
		if i < j {
			i, j = j, i
		}
		free[i] = free[len(free)-1]
		free = free[:len(free)-1]
		free[j] = free[len(free)-1]
		free = free[:len(free)-1]
	}
	anyValidPair := func() bool {
		for i := 0; i < len(free); i++ {
			for j := i + 1; j < len(free); j++ {
				if free[i] != free[j] && !hasEdge(free[i], free[j]) {
					return true
				}
			}
		}
		return false
	}

	for len(free) >= 2 {
		// Random pairing until draws stop landing.
		fails := 0
		for len(free) >= 2 && fails < 64 {
			if budget--; budget < 0 {
				return nil, false
			}
			i, j := rng.intn(len(free)), rng.intn(len(free))
			a, b := free[i], free[j]
			if i == j || a == b || hasEdge(a, b) {
				fails++
				continue
			}
			addEdge(a, b)
			dropPorts(i, j)
			fails = 0
		}
		if len(free) < 2 {
			break
		}
		if anyValidPair() {
			continue // unlucky streak, keep drawing
		}
		// Stuck: every remaining free-port pair is same-switch or already
		// adjacent. Incorporate two ports via the Jellyfish swap step.
		a, b := free[0], free[1]
		for i := 2; i < len(free) && a != b; i++ {
			if free[i] == a {
				b = free[i] // prefer two ports on one switch
			}
		}
		ok := false
		for tries := 0; tries < 200 && !ok; tries++ {
			if budget--; budget < 0 {
				return nil, false
			}
			e := edges[rng.intn(len(edges))]
			x, y := e[0], e[1]
			if x == a || x == b || y == a || y == b {
				continue
			}
			if a == b {
				// Break (x,y), attach both ends to a: degree of a +2.
				if hasEdge(a, x) || hasEdge(a, y) {
					continue
				}
				dropEdge(edgeAt[e])
				addEdge(a, x)
				addEdge(a, y)
				ok = true
			} else {
				// Break (x,y), attach a-x and b-y: one port each.
				if hasEdge(a, x) || hasEdge(b, y) {
					continue
				}
				dropEdge(edgeAt[e])
				addEdge(a, x)
				addEdge(b, y)
				ok = true
			}
		}
		if !ok {
			return nil, false
		}
		// The two incorporated ports are free[0]/free[1] or a duplicate
		// pair of switch a — remove one port of a and one of b.
		ia, ib := -1, -1
		for i, sw := range free {
			if sw == a && ia == -1 {
				ia = i
			} else if sw == b && ib == -1 {
				ib = i
			}
		}
		dropPorts(ia, ib)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges, true
}

// Params returns (switches, degree, hosts-per-switch).
func (j *Jellyfish) Params() (s, r, p int) { return j.s, j.r, j.p }

// Seed returns the wiring seed.
func (j *Jellyfish) Seed() uint64 { return j.seed }

// Name implements Topology.
func (j *Jellyfish) Name() string {
	return fmt.Sprintf("jellyfish(%d,%d,%d;%d)", j.s, j.r, j.p, j.seed)
}

// Kind implements Topology.
func (j *Jellyfish) Kind() string { return "jellyfish" }

var _ Topology = (*Jellyfish)(nil)
