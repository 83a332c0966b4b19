package mapping

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

func TestBisectionPlacesAllRanksDistinctly(t *testing.T) {
	cm := ringMatrix(t, 27)
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for r := 0; r < 27; r++ {
		n, err := mp.NodeOf(r)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatalf("node %d reused", n)
		}
		seen[n] = true
	}
}

func TestBisectionBeatsRandomOnClusters(t *testing.T) {
	// Four heavy 16-rank cliques whose members are scattered pseudo-
	// randomly over the rank space: bisection should gather each clique
	// into a compact sub-box, which neither consecutive nor random
	// placement achieves. (A fixed shuffle keeps the test deterministic.)
	const ranks = 64
	b, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, ranks)
	for i := range perm {
		perm[i] = i
	}
	state := uint64(12345)
	for i := ranks - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for c := 0; c < 4; c++ {
		members := perm[c*16 : (c+1)*16]
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				if err := b.Add(members[i], members[j], 10000); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cm := b.Matrix()
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	bis, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	bisCost, err := Cost(cm, topo, bis)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Consecutive(ranks, 64)
	if err != nil {
		t.Fatal(err)
	}
	consCost, err := Cost(cm, topo, cons)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Random(ranks, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	rndCost, err := Cost(cm, topo, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if bisCost >= rndCost {
		t.Fatalf("bisection %v not better than random %v", bisCost, rndCost)
	}
	if bisCost >= consCost {
		t.Fatalf("bisection %v not better than consecutive %v on strided cliques", bisCost, consCost)
	}
}

func TestBisectionOnMesh(t *testing.T) {
	cm := ringMatrix(t, 24)
	topo, err := topology.NewMesh(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Ranks() != 24 || mp.UsedNodes() != 24 {
		t.Fatalf("ranks=%d used=%d", mp.Ranks(), mp.UsedNodes())
	}
}

func TestBisectionFewerRanksThanNodes(t *testing.T) {
	cm := ringMatrix(t, 10)
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Ranks() != 10 || mp.UsedNodes() != 10 {
		t.Fatalf("ranks=%d used=%d", mp.Ranks(), mp.UsedNodes())
	}
	// The ring should land in a compact region: cost well below the
	// worst case.
	cost, err := Cost(cm, topo, mp)
	if err != nil {
		t.Fatal(err)
	}
	if cost > 1000*10*3 { // avg > 3 hops per 1000-byte edge would be poor
		t.Fatalf("bisection cost %v too high for a 10-ring", cost)
	}
}

func TestBisectionRejectsTooSmallTopology(t *testing.T) {
	cm := ringMatrix(t, 100)
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bisection(cm, topo); err == nil {
		t.Fatal("oversubscribed bisection accepted")
	}
}

func TestBisectionDeterministic(t *testing.T) {
	cm := ringMatrix(t, 16)
	topo, err := topology.NewTorus(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		n1, _ := m1.NodeOf(r)
		n2, _ := m2.NodeOf(r)
		if n1 != n2 {
			t.Fatal("bisection not deterministic")
		}
	}
}

func TestBisectionPlusRefine(t *testing.T) {
	// The combined mapper never loses to bisection alone.
	cm := ringMatrix(t, 27)
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	bis, err := Bisection(cm, topo)
	if err != nil {
		t.Fatal(err)
	}
	bisCost, err := Cost(cm, topo, bis)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(cm, topo, bis, 10)
	if err != nil {
		t.Fatal(err)
	}
	refCost, err := Cost(cm, topo, refined)
	if err != nil {
		t.Fatal(err)
	}
	if refCost > bisCost {
		t.Fatalf("refine worsened bisection: %v -> %v", bisCost, refCost)
	}
}
