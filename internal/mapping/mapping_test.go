package mapping

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := New([]int{0}, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New([]int{4}, 4); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := New([]int{-1}, 4); err == nil {
		t.Fatal("negative node accepted")
	}
	m, err := New([]int{2, 2, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks() != 3 || m.Nodes() != 4 || m.UsedNodes() != 2 {
		t.Fatalf("ranks=%d nodes=%d used=%d", m.Ranks(), m.Nodes(), m.UsedNodes())
	}
}

func TestNewCopiesTable(t *testing.T) {
	table := []int{0, 1}
	m, err := New(table, 2)
	if err != nil {
		t.Fatal(err)
	}
	table[0] = 1
	if n, _ := m.NodeOf(0); n != 0 {
		t.Fatal("mapping aliases caller slice")
	}
	out := m.Table()
	out[1] = 0
	if n, _ := m.NodeOf(1); n != 1 {
		t.Fatal("Table() aliases internal slice")
	}
}

func TestConsecutive(t *testing.T) {
	m, err := Consecutive(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if n, _ := m.NodeOf(r); n != r {
			t.Fatalf("NodeOf(%d) = %d", r, n)
		}
	}
	if m.UsedNodes() != 4 {
		t.Fatalf("UsedNodes = %d", m.UsedNodes())
	}
	if _, err := Consecutive(9, 8); err == nil {
		t.Fatal("too many ranks accepted")
	}
	if _, err := Consecutive(0, 8); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := m.NodeOf(4); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := m.NodeOf(-1); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestBlocked(t *testing.T) {
	m, err := Blocked(10, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for r, w := range want {
		if n, _ := m.NodeOf(r); n != w {
			t.Fatalf("NodeOf(%d) = %d, want %d", r, n, w)
		}
	}
	if _, err := Blocked(10, 2, 4); err == nil {
		t.Fatal("insufficient nodes accepted")
	}
	if _, err := Blocked(10, 3, 0); err == nil {
		t.Fatal("zero per-node accepted")
	}
	if _, err := Blocked(0, 3, 2); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestBlockedOneRankPerNodeEqualsConsecutive(t *testing.T) {
	b, err := Blocked(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Consecutive(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		bn, _ := b.NodeOf(r)
		cn, _ := c.NodeOf(r)
		if bn != cn {
			t.Fatalf("rank %d: blocked %d vs consecutive %d", r, bn, cn)
		}
	}
}

func TestRandomIsPermutationAndDeterministic(t *testing.T) {
	m1, err := Random(8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Random(8, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 8; r++ {
		n1, _ := m1.NodeOf(r)
		n2, _ := m2.NodeOf(r)
		if n1 != n2 {
			t.Fatal("same seed produced different mappings")
		}
		if seen[n1] {
			t.Fatalf("node %d used twice", n1)
		}
		seen[n1] = true
	}
	m3, err := Random(8, 12, 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for r := 0; r < 8; r++ {
		n1, _ := m1.NodeOf(r)
		n3, _ := m3.NodeOf(r)
		if n1 != n3 {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical mapping (unlikely)")
	}
	if _, err := Random(13, 12, 1); err == nil {
		t.Fatal("too many ranks accepted")
	}
	if _, err := Random(0, 12, 1); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

// ringMatrix builds a ring communication pattern: rank i talks heavily to
// (i+1) mod n.
func ringMatrix(t *testing.T, n int) *comm.Matrix {
	t.Helper()
	b, err := comm.NewBuilder(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Add(i, (i+1)%n, 1000); err != nil {
			t.Fatal(err)
		}
	}
	return b.Matrix()
}

func weightedHops(t *testing.T, m *comm.Matrix, topo topology.Topology, mp *Mapping) float64 {
	t.Helper()
	var total float64
	var failed bool
	m.Each(func(k comm.Key, e comm.Entry) {
		ns, err1 := mp.NodeOf(k.Src)
		nd, err2 := mp.NodeOf(k.Dst)
		if err1 != nil || err2 != nil {
			failed = true
			return
		}
		total += float64(e.Bytes) * float64(topo.HopCount(ns, nd))
	})
	if failed {
		t.Fatal("mapping lookup failed")
	}
	return total
}

func TestGreedyBeatsRandomOnRing(t *testing.T) {
	cm := ringMatrix(t, 27)
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Random(27, 27, 99)
	if err != nil {
		t.Fatal(err)
	}
	gh := weightedHops(t, cm, topo, greedy)
	rh := weightedHops(t, cm, topo, random)
	if gh >= rh {
		t.Fatalf("greedy %v not better than random %v", gh, rh)
	}
}

func TestGreedyPlacesAllRanksOnDistinctNodes(t *testing.T) {
	cm := ringMatrix(t, 16)
	topo, err := topology.NewFatTree(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	if g.Ranks() != 16 {
		t.Fatalf("ranks = %d", g.Ranks())
	}
	seen := map[int]bool{}
	for r := 0; r < 16; r++ {
		n, err := g.NodeOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatalf("node %d reused", n)
		}
		seen[n] = true
	}
}

func TestGreedyHandlesSilentRanks(t *testing.T) {
	// Only two ranks talk; the rest are isolated but must still be placed.
	b, err := comm.NewBuilder(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(3, 7, 100); err != nil {
		t.Fatal(err)
	}
	cm := b.Matrix()
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	n3, _ := g.NodeOf(3)
	n7, _ := g.NodeOf(7)
	if topo.HopCount(n3, n7) != 1 {
		t.Fatalf("communicating pair placed %d hops apart", topo.HopCount(n3, n7))
	}
}

func TestGreedyRejectsTooSmallTopology(t *testing.T) {
	cm := ringMatrix(t, 100)
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Greedy(cm, topo); err == nil {
		t.Fatal("oversubscribed greedy accepted")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	cm := ringMatrix(t, 12)
	topo, err := topology.NewTorus(3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Greedy(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		n1, _ := g1.NodeOf(r)
		n2, _ := g2.NodeOf(r)
		if n1 != n2 {
			t.Fatal("greedy not deterministic")
		}
	}
}
