package mapping

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

func TestCostMatchesManualComputation(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Add(0, 1, 100) // 1 hop under consecutive
	_ = b.Add(0, 3, 10)  // 2 hops (diagonal on 2x2)
	m := b.Matrix()
	mp, err := Consecutive(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Cost(m, topo, mp)
	if err != nil {
		t.Fatal(err)
	}
	if c != 100*1+10*2 {
		t.Fatalf("cost = %v, want 120", c)
	}
}

// Cost is exact past 2^53: on a 256-node ring, 2^46 bytes over 128 hops
// plus two 1-byte neighbor pairs cost 2^53 + 2 (a float64 sum rounds
// both bytes away).
func TestCostIsExactPast2p53(t *testing.T) {
	topo, err := topology.NewTorus(256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		src, dst int
		bytes    uint64
	}{{0, 128, 1 << 46}, {1, 2, 1}, {3, 4, 1}} {
		if err := b.Add(s.src, s.dst, s.bytes); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Matrix()
	mp, err := Consecutive(256, 256)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Cost(m, topo, mp)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1<<53+2 {
		t.Fatalf("cost = %v, want 2^53 + 2 = %d", c, uint64(1<<53+2))
	}
}

func TestCostValidatesMapping(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 1)
	b, _ := comm.NewBuilder(8, 0)
	_ = b.Add(0, 7, 1)
	m := b.Matrix()
	mp, _ := Consecutive(4, 4)
	if _, err := Cost(m, topo, mp); err == nil {
		t.Fatal("undersized mapping accepted")
	}
}

func TestRefineNeverWorsens(t *testing.T) {
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(27, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scrambled heavy pairs.
	for i := 0; i < 27; i++ {
		_ = b.Add(i, (i*7+3)%27, uint64(1000*(i+1)))
	}
	m := b.Matrix()
	start, err := Random(27, 27, 3)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Cost(m, topo, start)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(m, topo, start, 10)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Cost(m, topo, refined)
	if err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("refine worsened cost: %v -> %v", before, after)
	}
	if after == before {
		t.Fatalf("refine found no improvement on a scrambled mapping (cost %v)", before)
	}
}

func TestRefineFixedPointOnOptimalRing(t *testing.T) {
	// A ring mapped perfectly onto a 1D ring torus: no swap can help.
	topo, err := topology.NewTorus(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = b.Add(i, (i+1)%8, 100)
	}
	m := b.Matrix()
	ident, err := Consecutive(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Refine(m, topo, ident, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Cost(m, topo, refined)
	if err != nil {
		t.Fatal(err)
	}
	if c != 800 { // 8 messages x 1 hop x 100 bytes
		t.Fatalf("cost = %v, want 800", c)
	}
}

func TestRefineRejectsSharedNodes(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 1)
	b, _ := comm.NewBuilder(4, 0)
	_ = b.Add(0, 1, 1)
	m := b.Matrix()
	shared, err := New([]int{0, 0, 1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refine(m, topo, shared, 1); err == nil {
		t.Fatal("shared-node mapping accepted")
	}
}

func TestRefineRejectsUndersizedInitial(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 2)
	b, _ := comm.NewBuilder(8, 0)
	_ = b.Add(0, 1, 1)
	m := b.Matrix()
	small, _ := Consecutive(4, 8)
	if _, err := Refine(m, topo, small, 1); err == nil {
		t.Fatal("undersized initial accepted")
	}
}

func TestOptimizeBeatsConsecutiveOnColumnPattern(t *testing.T) {
	// SNAP-like pattern: heavy exchange along columns of a 2D rank grid
	// whose row length does not match the torus x dimension, so the
	// consecutive mapping is far from optimal.
	const cols, rows = 8, 8
	b, err := comm.NewBuilder(cols*rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < cols; x++ {
		for y := 0; y < rows; y++ {
			for oy := 0; oy < rows; oy++ {
				if oy != y {
					_ = b.Add(y*cols+x, oy*cols+x, 1000)
				}
			}
		}
	}
	m := b.Matrix()
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Consecutive(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	consCost, err := Cost(m, topo, cons)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(m, topo, 20)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := Cost(m, topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	if optCost >= consCost {
		t.Fatalf("optimized %v not better than consecutive %v", optCost, consCost)
	}
}
