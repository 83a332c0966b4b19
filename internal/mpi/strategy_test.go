package mpi

import (
	"testing"

	"netloc/internal/trace"
)

func expandWith(t *testing.T, e trace.Event, n int, s Strategy) []Message {
	t.Helper()
	w := mustWorld(t, n)
	msgs, err := ExpandEvent(nil, e, w, ExpandOptions{Strategy: s})
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

func TestStrategyString(t *testing.T) {
	if StrategyDirect.String() != "direct" || StrategyTree.String() != "tree" || StrategyRing.String() != "ring" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() != "strategy(9)" {
		t.Fatal("unknown strategy name")
	}
}

func TestBinomialTreeStructure(t *testing.T) {
	// Standard binomial tree over 8 ranks rooted at 0 (round k: ranks
	// below 2^k send to themselves plus 2^k):
	// 0 -> 1, 2, 4; 1 -> 3, 5; 2 -> 6; 3 -> 7.
	want := map[int][]int{
		0: {1, 2, 4},
		1: {3, 5},
		2: {6},
		3: {7},
		4: {},
		5: {},
		6: {},
		7: {},
	}
	for r, wc := range want {
		got := binomialChildren(r, 0, 8)
		if len(got) != len(wc) {
			t.Fatalf("children(%d) = %v, want %v", r, got, wc)
		}
		for i := range wc {
			if got[i] != wc[i] {
				t.Fatalf("children(%d) = %v, want %v", r, got, wc)
			}
		}
	}
	// Parents are consistent with children.
	for r := 1; r < 8; r++ {
		p := binomialParent(r, 0, 8)
		found := false
		for _, c := range binomialChildren(p, 0, 8) {
			if c == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("rank %d not among children of its parent %d", r, p)
		}
	}
	if binomialParent(0, 0, 8) != -1 {
		t.Fatal("root must have no parent")
	}
}

func TestBinomialTreeRotatedRoot(t *testing.T) {
	// Rooted at 3 over 8 ranks: the virtual tree is the same, rotated.
	if p := binomialParent(3, 3, 8); p != -1 {
		t.Fatalf("root parent = %d", p)
	}
	children := binomialChildren(3, 3, 8)
	want := []int{4, 5, 7} // virtual 1, 2, 4 shifted by +3
	if len(children) != 3 {
		t.Fatalf("children = %v", children)
	}
	for i := range want {
		if children[i] != want[i] {
			t.Fatalf("children = %v, want %v", children, want)
		}
	}
}

func TestBinomialTreeCoversAllRanksOnce(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13, 16, 27} {
		for root := 0; root < n; root += max(1, n/3) {
			seen := map[int]int{}
			for r := 0; r < n; r++ {
				for _, c := range binomialChildren(r, root, n) {
					seen[c]++
				}
			}
			if len(seen) != n-1 {
				t.Fatalf("n=%d root=%d: %d ranks have parents, want %d", n, root, len(seen), n-1)
			}
			for c, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("n=%d root=%d: rank %d has %d parents", n, root, c, cnt)
				}
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestTreeBcastVolume(t *testing.T) {
	// Tree bcast over 8 ranks: total wire volume is 7 x B (one delivery
	// per non-root), spread over the tree edges; aggregated over all
	// rank events.
	const n, bytes = 8, 1000
	var total uint64
	var msgs int
	for r := 0; r < n; r++ {
		out := expandWith(t, trace.Event{Rank: r, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: bytes}, n, StrategyTree)
		for _, m := range out {
			total += m.Bytes
			msgs++
		}
	}
	if total != bytes*(n-1) {
		t.Fatalf("tree bcast volume = %d, want %d", total, bytes*(n-1))
	}
	if msgs != n-1 {
		t.Fatalf("tree bcast messages = %d, want %d", msgs, n-1)
	}
}

func TestTreeReduceVolume(t *testing.T) {
	// Tree reduce: every non-root sends its buffer once to its parent.
	const n, bytes = 8, 1000
	var total uint64
	for r := 0; r < n; r++ {
		out := expandWith(t, trace.Event{Rank: r, Op: trace.OpReduce, Peer: -1, Root: 2, Bytes: bytes}, n, StrategyTree)
		for _, m := range out {
			total += m.Bytes
			if m.Src != r {
				t.Fatalf("src = %d, want %d", m.Src, r)
			}
		}
	}
	if total != bytes*(n-1) {
		t.Fatalf("tree reduce volume = %d, want %d", total, bytes*(n-1))
	}
}

func TestTreeGatherSubtreeAggregation(t *testing.T) {
	// Gather over 8 ranks rooted at 0: rank 1 forwards its 4-rank
	// subtree (ranks 1,3,5,7) worth of chunks; leaf rank 4 forwards only
	// its own.
	out := expandWith(t, trace.Event{Rank: 1, Op: trace.OpGather, Peer: -1, Root: 0, Bytes: 100}, 8, StrategyTree)
	if len(out) != 1 || out[0].Dst != 0 || out[0].Bytes != 400 {
		t.Fatalf("gather from 1 = %+v", out)
	}
	out = expandWith(t, trace.Event{Rank: 4, Op: trace.OpGather, Peer: -1, Root: 0, Bytes: 100}, 8, StrategyTree)
	if len(out) != 1 || out[0].Dst != 0 || out[0].Bytes != 100 {
		t.Fatalf("gather from 4 = %+v", out)
	}
}

func TestTreeScatterSubtreeChunks(t *testing.T) {
	// Scatter over 8 ranks from root 0 with caller buffer covering the 7
	// receivers (700 bytes -> 100 per rank): the edge to rank 1 carries
	// its 4-rank subtree, rank 2 its 2-rank subtree, rank 4 only itself.
	out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpScatter, Peer: -1, Root: 0, Bytes: 700}, 8, StrategyTree)
	byDst := map[int]uint64{}
	for _, m := range out {
		byDst[m.Dst] = m.Bytes
	}
	if byDst[1] != 400 || byDst[2] != 200 || byDst[4] != 100 {
		t.Fatalf("scatter chunks = %v", byDst)
	}
}

func TestTreeAllreduceLogPartners(t *testing.T) {
	out := expandWith(t, trace.Event{Rank: 3, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 64}, 16, StrategyTree)
	if len(out) != 4 { // log2(16)
		t.Fatalf("partners = %d, want 4", len(out))
	}
	wantDst := map[int]bool{4: true, 5: true, 7: true, 11: true} // 3+1, 3+2, 3+4, 3+8
	for _, m := range out {
		if !wantDst[m.Dst] {
			t.Fatalf("unexpected partner %d", m.Dst)
		}
	}
}

func TestRingAllreduceNeighborOnly(t *testing.T) {
	const n = 8
	out := expandWith(t, trace.Event{Rank: 5, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 800}, n, StrategyRing)
	if len(out) != 2*(n-1) {
		t.Fatalf("messages = %d, want %d", len(out), 2*(n-1))
	}
	for _, m := range out {
		if m.Dst != 6 {
			t.Fatalf("ring partner = %d, want 6", m.Dst)
		}
		if m.Bytes != 100 { // B/n
			t.Fatalf("chunk = %d, want 100", m.Bytes)
		}
	}
	// Wrap-around for the last rank.
	out = expandWith(t, trace.Event{Rank: 7, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 800}, n, StrategyRing)
	if out[0].Dst != 0 {
		t.Fatalf("wrap partner = %d, want 0", out[0].Dst)
	}
}

func TestRingAllgatherVolume(t *testing.T) {
	const n = 8
	out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpAllgather, Peer: -1, Root: -1, Bytes: 100}, n, StrategyRing)
	if len(out) != n-1 {
		t.Fatalf("messages = %d", len(out))
	}
	var total uint64
	for _, m := range out {
		total += m.Bytes
	}
	if total != 700 {
		t.Fatalf("volume = %d, want 700", total)
	}
}

func TestRingRootedFallsBackToTree(t *testing.T) {
	outRing := expandWith(t, trace.Event{Rank: 0, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 100}, 8, StrategyRing)
	outTree := expandWith(t, trace.Event{Rank: 0, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 100}, 8, StrategyTree)
	if len(outRing) != len(outTree) {
		t.Fatalf("ring bcast != tree bcast: %d vs %d", len(outRing), len(outTree))
	}
}

func TestStrategyZeroBytesAndTinyComms(t *testing.T) {
	for _, s := range []Strategy{StrategyTree, StrategyRing} {
		if out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 0}, 8, s); len(out) != 0 {
			t.Fatalf("%v: zero bytes produced messages", s)
		}
		if out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 10}, 1, s); len(out) != 0 {
			t.Fatalf("%v: single-rank comm produced messages", s)
		}
		if out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpBarrier, Peer: -1, Root: -1, Bytes: 0}, 8, s); len(out) != 0 {
			t.Fatalf("%v: barrier produced messages", s)
		}
	}
}

func TestStrategyP2PUnaffected(t *testing.T) {
	for _, s := range []Strategy{StrategyTree, StrategyRing} {
		out := expandWith(t, trace.Event{Rank: 0, Op: trace.OpSend, Peer: 3, Root: -1, Bytes: 100}, 8, s)
		if len(out) != 1 || out[0] != (Message{Src: 0, Dst: 3, Bytes: 100}) {
			t.Fatalf("%v altered p2p expansion: %+v", s, out)
		}
	}
}

func TestStrategySubCommunicator(t *testing.T) {
	world := mustWorld(t, 16)
	sub, err := NewComm([]int{2, 5, 8, 11})
	if err != nil {
		t.Fatal(err)
	}
	// Ring allreduce from global rank 5 (virtual 1): partner is virtual
	// 2 = global 8.
	msgs, err := ExpandEvent(nil, trace.Event{Rank: 5, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 400},
		world, ExpandOptions{Comm: sub, Strategy: StrategyRing})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 6 { // 2*(4-1)
		t.Fatalf("messages = %d", len(msgs))
	}
	for _, m := range msgs {
		if m.Dst != 8 {
			t.Fatalf("sub-comm ring partner = %d, want 8", m.Dst)
		}
	}
	// Non-member rank errors.
	if _, err := ExpandEvent(nil, trace.Event{Rank: 3, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 4},
		world, ExpandOptions{Comm: sub, Strategy: StrategyRing}); err == nil {
		t.Fatal("non-member accepted")
	}
}

func TestCommRank(t *testing.T) {
	c, err := NewComm([]int{4, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if cr, ok := c.CommRank(7); !ok || cr != 1 {
		t.Fatalf("CommRank(7) = %d, %v", cr, ok)
	}
	if _, ok := c.CommRank(5); ok {
		t.Fatal("non-member resolved")
	}
}
