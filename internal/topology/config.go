package topology

import (
	"fmt"
	"sort"
)

// Config describes one topology instance selected for a given rank count,
// mirroring a row of the paper's Table 2. The "mesh" kind (a torus without
// wraparound) is an extension used by the design optimizer's candidate
// sweep, and the "slimfly", "jellyfish", and "hyperx" kinds are the
// extreme-scale families beyond the paper's study; the paper's tables only
// use the original three.
type Config struct {
	Kind  string // "torus", "mesh", "fattree", "dragonfly", "slimfly", "jellyfish", "hyperx"
	Size  int    // requested rank count
	Nodes int    // nodes provided by the configuration

	// Torus/mesh parameters; HyperX reuses them as its per-dimension
	// switch counts.
	X, Y, Z int
	// Fat-tree parameters.
	Radix, Stages int
	// Dragonfly parameters; P doubles as the nodes-per-switch count of
	// the slimfly/jellyfish/hyperx kinds.
	A, H, P int
	// Slim Fly field order (prime power).
	Q int `json:",omitempty"`
	// Jellyfish switch count and inter-switch degree.
	S, D int `json:",omitempty"`
	// Jellyfish wiring seed. Part of the structural identity: it appears
	// in String() and therefore in every cache key derived from it.
	Seed uint64 `json:",omitempty"`
}

// Build instantiates the configured topology.
func (c Config) Build() (Topology, error) {
	switch c.Kind {
	case "torus":
		return NewTorus(c.X, c.Y, c.Z)
	case "mesh":
		return NewMesh(c.X, c.Y, c.Z)
	case "fattree":
		return NewFatTree(c.Radix, c.Stages)
	case "dragonfly":
		return NewDragonfly(c.A, c.H, c.P)
	case "slimfly":
		return NewSlimFly(c.Q, c.P)
	case "jellyfish":
		return NewJellyfish(c.S, c.D, c.P, c.Seed)
	case "hyperx":
		return NewHyperX(c.X, c.Y, c.Z, c.P)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", c.Kind)
	}
}

// String renders the configuration like the paper's Table 2 cells. Every
// structural parameter must appear here: the workcache keys built
// topologies by Kind + String(), so two configs that render alike must
// build identical graphs.
func (c Config) String() string {
	switch c.Kind {
	case "torus", "mesh":
		return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z)
	case "fattree":
		return fmt.Sprintf("(%d,%d)", c.Radix, c.Stages)
	case "dragonfly":
		return fmt.Sprintf("(%d,%d,%d)", c.A, c.H, c.P)
	case "slimfly":
		return fmt.Sprintf("(%d,%d)", c.Q, c.P)
	case "jellyfish":
		return fmt.Sprintf("(%d,%d,%d;%d)", c.S, c.D, c.P, c.Seed)
	case "hyperx":
		return fmt.Sprintf("(%d,%d,%d;%d)", c.X, c.Y, c.Z, c.P)
	}
	return "?"
}

// SwitchRadix returns the ports of one switch of the configuration,
// terminal and network ports together: 7 for a torus or mesh router (six
// neighbours and one injection port), the radix of a fat tree,
// p+(a-1)+h for a dragonfly, k+p for a Slim Fly (k = (3q−δ)/2), d+p for
// a Jellyfish and (x-1)+(y-1)+(z-1)+p for a HyperX.
func (c Config) SwitchRadix() int {
	switch c.Kind {
	case "torus", "mesh":
		return 7
	case "fattree":
		return c.Radix
	case "dragonfly":
		return c.P + (c.A - 1) + c.H
	case "slimfly":
		return (3*c.Q-slimFlyDelta(c.Q))/2 + c.P
	case "jellyfish":
		return c.D + c.P
	case "hyperx":
		return (c.X - 1) + (c.Y - 1) + (c.Z - 1) + c.P
	}
	return 0
}

// Kinds lists every buildable topology kind, paper families first.
func Kinds() []string {
	return []string{"torus", "mesh", "fattree", "dragonfly", "slimfly", "jellyfish", "hyperx"}
}

// FatTreeRadix is the switch radix the study uses for all fat-tree
// configurations ("the deliberately high switch radix of 48 allows to set
// up large systems with only a few stages").
const FatTreeRadix = 48

// paperTorusDims reproduces the torus column of Table 2 exactly.
var paperTorusDims = map[int][3]int{
	8:    {2, 2, 2},
	9:    {3, 2, 2},
	10:   {3, 2, 2},
	18:   {3, 3, 2},
	27:   {3, 3, 3},
	64:   {4, 4, 4},
	100:  {5, 5, 4},
	125:  {5, 5, 5},
	144:  {6, 6, 4},
	168:  {7, 6, 4},
	216:  {6, 6, 6},
	256:  {8, 8, 4},
	512:  {8, 8, 8},
	1000: {10, 10, 10},
	1024: {16, 8, 8},
	1152: {12, 12, 8},
	1728: {12, 12, 12},
}

// TorusConfig returns the 3D-torus configuration for the given rank count:
// the paper's Table 2 entry when the size appears there, otherwise the
// smallest near-cubic grid covering the ranks (x ≥ y ≥ z, x·y·z ≥ ranks,
// aspect ratio x ≤ 2z, minimal volume).
func TorusConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	if dims, ok := paperTorusDims[ranks]; ok {
		return Config{Kind: "torus", Size: ranks, Nodes: dims[0] * dims[1] * dims[2],
			X: dims[0], Y: dims[1], Z: dims[2]}, nil
	}
	x, y, z, err := nearCubicDims(ranks)
	if err != nil {
		return Config{}, err
	}
	return Config{Kind: "torus", Size: ranks, Nodes: x * y * z, X: x, Y: y, Z: z}, nil
}

// nearCubicDims finds x ≥ y ≥ z ≥ 1 with x·y·z ≥ n, x ≤ 2z (when possible),
// minimizing the volume and then the largest dimension.
func nearCubicDims(n int) (x, y, z int, err error) {
	if n == 1 {
		return 1, 1, 1, nil
	}
	bestVol := -1
	for zi := 1; zi*zi*zi <= n*2; zi++ {
		for yi := zi; ; yi++ {
			// Smallest x with x*yi*zi >= n.
			xi := (n + yi*zi - 1) / (yi * zi)
			if xi < yi {
				xi = yi
			}
			if yi > 2*zi && xi > 2*zi {
				break
			}
			if xi > 2*zi {
				continue
			}
			vol := xi * yi * zi
			if bestVol == -1 || vol < bestVol || (vol == bestVol && xi < x) {
				bestVol, x, y, z = vol, xi, yi, zi
			}
			if yi*zi >= n { // larger yi only grows the volume
				break
			}
		}
	}
	if bestVol == -1 {
		return 0, 0, 0, fmt.Errorf("topology: no near-cubic dims for %d", n)
	}
	return x, y, z, nil
}

// FatTreeConfig returns the smallest radix-48 fat tree covering the ranks.
func FatTreeConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	if c, ok := FatTreeAt(ranks, FatTreeRadix); ok {
		return c, nil
	}
	d := FatTreeRadix / 2
	return Config{}, fmt.Errorf("topology: %d ranks exceed the largest fat-tree configuration (%d)", ranks, d*d*d)
}

// FatTreeAt returns the smallest fat tree of the given switch radix that
// covers the ranks: one switch, or two or three stages of d = radix/2
// down-ports per switch (d² or d³ nodes). It is not ok past d³ ranks.
func FatTreeAt(ranks, radix int) (Config, bool) {
	d := radix / 2
	var stages, nodes int
	switch {
	case ranks <= radix:
		stages, nodes = 1, radix
	case ranks <= d*d:
		stages, nodes = 2, d*d
	case ranks <= d*d*d:
		stages, nodes = 3, d*d*d
	default:
		return Config{}, false
	}
	return Config{Kind: "fattree", Size: ranks, Nodes: nodes, Radix: radix, Stages: stages}, true
}

// dragonflyLadder lists the balanced (a = 2h = 2p) configurations the study
// uses, smallest first.
var dragonflyLadder = [][3]int{
	{4, 2, 2},  // 72 nodes
	{6, 3, 3},  // 342 nodes
	{8, 4, 4},  // 1056 nodes
	{10, 5, 5}, // 2550 nodes
	{12, 6, 6}, // 5256 nodes (beyond the paper's table; natural extension)
	{14, 7, 7}, // 9702 nodes
	{16, 8, 8}, // 16512 nodes
}

// DragonflyConfig returns the smallest balanced dragonfly covering the
// ranks.
func DragonflyConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	for _, c := range dragonflyLadder {
		a, h, p := c[0], c[1], c[2]
		nodes := a * p * (a*h + 1)
		if nodes >= ranks {
			return Config{Kind: "dragonfly", Size: ranks, Nodes: nodes, A: a, H: h, P: p}, nil
		}
	}
	return Config{}, fmt.Errorf("topology: %d ranks exceed the largest dragonfly configuration", ranks)
}

// Configs returns the torus, fat-tree, and dragonfly configurations for a
// rank count, i.e. one row of Table 2.
func Configs(ranks int) (torus, fattree, dragonfly Config, err error) {
	if torus, err = TorusConfig(ranks); err != nil {
		return
	}
	if fattree, err = FatTreeConfig(ranks); err != nil {
		return
	}
	dragonfly, err = DragonflyConfig(ranks)
	return
}

// SlimFlyQLadder lists the MMS field orders that SlimFlyConfig and the
// design enumerator consider, smallest first (odd prime powers; 2q²
// routers each).
var SlimFlyQLadder = []int{5, 7, 11, 13, 17, 19, 23, 25}

// SlimFlyConfig returns the smallest ladder Slim Fly covering the ranks:
// the first field order q that SlimFlyAt accepts.
func SlimFlyConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	for _, q := range SlimFlyQLadder {
		if c, ok := SlimFlyAt(ranks, q); ok {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("topology: %d ranks exceed the largest slim fly configuration", ranks)
}

// SlimFlyAt returns the Slim Fly of field order q whose 2q² routers cover
// the ranks with the fewest endpoints each, p = ⌈ranks/2q²⌉. It is not ok
// past the balanced endpoint load p ≤ ⌈k/2⌉ (k = (3q−δ)/2, the network
// degree).
func SlimFlyAt(ranks, q int) (Config, bool) {
	routers := 2 * q * q
	k := (3*q - slimFlyDelta(q)) / 2
	p := (ranks + routers - 1) / routers
	if p > (k+1)/2 {
		return Config{}, false
	}
	return Config{Kind: "slimfly", Size: ranks, Nodes: routers * p, Q: q, P: p}, true
}

// JellyfishConfig returns a near-balanced Jellyfish covering the ranks:
// JellyfishAt with p ≈ ∛ranks nodes per switch.
func JellyfishConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	p := 1
	for p*p*p < ranks {
		p++
	}
	if c, ok := JellyfishAt(ranks, p); ok {
		return c, nil
	}
	return Config{}, fmt.Errorf("topology: %d ranks exceed the largest jellyfish configuration", ranks)
}

// JellyfishAt returns the Jellyfish with p nodes per switch covering the
// ranks: s = max(⌈ranks/p⌉, 2) switches of degree 2p clamped to the other
// s-1 switches, wiring seed 1. The port total s·d is even as a regular
// graph needs: 2p is even, and so is s-1 whenever s is odd. It is not ok
// past MaxJellyfishSwitches.
func JellyfishAt(ranks, p int) (Config, bool) {
	s := max((ranks+p-1)/p, 2)
	if s > MaxJellyfishSwitches {
		return Config{}, false
	}
	return Config{Kind: "jellyfish", Size: ranks, Nodes: s * p, S: s, D: min(2*p, s-1), P: p, Seed: 1}, true
}

// hyperXTerminalLadder lists the per-switch endpoint counts the sizing
// sweep considers, smallest first.
var hyperXTerminalLadder = []int{4, 8, 16, 32}

// HyperXConfig returns a near-square two-dimensional HyperX covering the
// ranks: the first terminal count whose lattice (HyperXAt) fits the
// radix-48 switch budget shared with the fat-tree study.
func HyperXConfig(ranks int) (Config, error) {
	if ranks <= 0 {
		return Config{}, fmt.Errorf("topology: non-positive rank count %d", ranks)
	}
	for _, t := range hyperXTerminalLadder {
		if c, ok := HyperXAt(ranks, t); ok && c.SwitchRadix() <= FatTreeRadix {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("topology: %d ranks exceed the largest hyperx configuration", ranks)
}

// HyperXAt returns the near-square two-dimensional HyperX with t nodes per
// switch covering the ranks: s1 = ⌈√⌈ranks/t⌉⌉ switches in one dimension
// and the fewest s2 that cover the rest in the other. It is not ok past
// MaxHyperXSwitches.
func HyperXAt(ranks, t int) (Config, bool) {
	sw := (ranks + t - 1) / t
	s1 := 1
	for s1*s1 < sw {
		s1++
	}
	s2 := (sw + s1 - 1) / s1
	if s1*s2 > MaxHyperXSwitches {
		return Config{}, false
	}
	return Config{Kind: "hyperx", Size: ranks, Nodes: s1 * s2 * t, X: s1, Y: s2, Z: 1, P: t}, true
}

// PaperSizes returns the rank counts of Table 2 in ascending order.
func PaperSizes() []int {
	sizes := make([]int, 0, len(paperTorusDims))
	for s := range paperTorusDims {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	return sizes
}
