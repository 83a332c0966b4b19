package mpi

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"netloc/internal/trace"
)

func mustWorld(t *testing.T, n int) *Comm {
	t.Helper()
	w, err := World(n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func expand1(t *testing.T, e trace.Event, n int) []Message {
	t.Helper()
	w := mustWorld(t, n)
	msgs, err := ExpandEvent(nil, e, w, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

// expandAll expands every event of a trace on its world communicator,
// the way comm.Accumulate walks a trace.
func expandAll(t *testing.T, tr *trace.Trace) []Message {
	t.Helper()
	w := mustWorld(t, tr.Meta.Ranks)
	var msgs []Message
	for i, e := range tr.Events {
		var err error
		if msgs, err = ExpandEvent(msgs, e, w, ExpandOptions{}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	return msgs
}

func totalBytes(msgs []Message) uint64 {
	var s uint64
	for _, m := range msgs {
		s += m.Bytes
	}
	return s
}

func TestWorldErrors(t *testing.T) {
	if _, err := World(0); err == nil {
		t.Fatal("World(0) should fail")
	}
	if _, err := World(-3); err == nil {
		t.Fatal("World(-3) should fail")
	}
}

// The world communicator holds no rank tables but answers every query
// like a communicator listing the ranks 0..n-1.
func TestWorldAnswersLikeItsRankList(t *testing.T) {
	const n = 6
	w := mustWorld(t, n)
	if r := w.Ranks(); !slices.Equal(r, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("Ranks = %v", r)
	}
	list, err := NewComm(w.Ranks())
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != list.Size() {
		t.Fatalf("Size = %d, want %d", w.Size(), list.Size())
	}
	for r := -1; r <= n; r++ {
		wg, werr := w.Global(r)
		lg, lerr := list.Global(r)
		if wg != lg || (werr == nil) != (lerr == nil) {
			t.Errorf("Global(%d) = %d, %v; want %d, %v", r, wg, werr, lg, lerr)
		}
		wc, wok := w.CommRank(r)
		lc, lok := list.CommRank(r)
		if wc != lc || wok != lok {
			t.Errorf("CommRank(%d) = %d, %v; want %d, %v", r, wc, wok, lc, lok)
		}
	}
}

func TestNewCommValidation(t *testing.T) {
	if _, err := NewComm(nil); err == nil {
		t.Fatal("empty comm should fail")
	}
	if _, err := NewComm([]int{0, 0}); err == nil {
		t.Fatal("duplicate rank should fail")
	}
	if _, err := NewComm([]int{-1}); err == nil {
		t.Fatal("negative rank should fail")
	}
	c, err := NewComm([]int{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Fatalf("Size = %d", c.Size())
	}
	g, err := c.Global(1)
	if err != nil || g != 1 {
		t.Fatalf("Global(1) = %d, %v", g, err)
	}
	if _, err := c.Global(3); err == nil {
		t.Fatal("out-of-range comm rank should fail")
	}
	if _, err := c.Global(-1); err == nil {
		t.Fatal("negative comm rank should fail")
	}
}

func TestCommRanksIsCopy(t *testing.T) {
	c, _ := NewComm([]int{5, 6})
	r := c.Ranks()
	r[0] = 99
	if g, _ := c.Global(0); g != 5 {
		t.Fatal("Ranks() must return a copy")
	}
}

func TestExpandSend(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 2, Op: trace.OpSend, Peer: 5, Root: -1, Bytes: 777}, 8)
	if len(msgs) != 1 {
		t.Fatalf("len = %d", len(msgs))
	}
	m := msgs[0]
	if m.Src != 2 || m.Dst != 5 || m.Bytes != 777 {
		t.Fatalf("bad message %+v", m)
	}
}

func TestExpandRecvIsSilent(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 2, Op: trace.OpRecv, Peer: 5, Root: -1, Bytes: 777}, 8)
	if len(msgs) != 0 {
		t.Fatalf("recv produced %d messages", len(msgs))
	}
}

func TestExpandBcast(t *testing.T) {
	// Root's event: root sends full buffer to everyone else.
	msgs := expand1(t, trace.Event{Rank: 3, Op: trace.OpBcast, Peer: -1, Root: 3, Bytes: 100}, 4)
	if len(msgs) != 3 {
		t.Fatalf("len = %d, want 3", len(msgs))
	}
	for _, m := range msgs {
		if m.Src != 3 || m.Bytes != 100 {
			t.Fatalf("bad message %+v", m)
		}
		if m.Dst == 3 {
			t.Fatal("bcast to self")
		}
	}
	// Non-root event: nothing sourced.
	msgs = expand1(t, trace.Event{Rank: 1, Op: trace.OpBcast, Peer: -1, Root: 3, Bytes: 100}, 4)
	if len(msgs) != 0 {
		t.Fatalf("non-root bcast produced %d messages", len(msgs))
	}
}

func TestExpandScatterSplitsEvenly(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 0, Op: trace.OpScatter, Peer: -1, Root: 0, Bytes: 300}, 4)
	if len(msgs) != 3 {
		t.Fatalf("len = %d, want 3", len(msgs))
	}
	for _, m := range msgs {
		if m.Bytes != 100 {
			t.Fatalf("scatter piece = %d, want 100", m.Bytes)
		}
	}
}

func TestExpandReduceGather(t *testing.T) {
	for _, op := range []trace.Op{trace.OpReduce, trace.OpGather, trace.OpGatherv} {
		// Non-root sends to root.
		msgs := expand1(t, trace.Event{Rank: 2, Op: op, Peer: -1, Root: 0, Bytes: 64}, 4)
		if len(msgs) != 1 || msgs[0].Src != 2 || msgs[0].Dst != 0 || msgs[0].Bytes != 64 {
			t.Fatalf("%v: bad expansion %+v", op, msgs)
		}
		// Root's own event contributes nothing.
		msgs = expand1(t, trace.Event{Rank: 0, Op: op, Peer: -1, Root: 0, Bytes: 64}, 4)
		if len(msgs) != 0 {
			t.Fatalf("%v: root event produced %d messages", op, len(msgs))
		}
	}
}

func TestExpandAllreduceFullExchange(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 1, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 8}, 5)
	if len(msgs) != 4 {
		t.Fatalf("len = %d, want 4", len(msgs))
	}
	seen := map[int]bool{}
	for _, m := range msgs {
		if m.Src != 1 || m.Bytes != 8 {
			t.Fatalf("bad message %+v", m)
		}
		seen[m.Dst] = true
	}
	for _, d := range []int{0, 2, 3, 4} {
		if !seen[d] {
			t.Fatalf("missing destination %d", d)
		}
	}
}

func TestExpandAlltoallSplits(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 0, Op: trace.OpAlltoall, Peer: -1, Root: -1, Bytes: 900}, 10)
	if len(msgs) != 9 {
		t.Fatalf("len = %d, want 9", len(msgs))
	}
	for _, m := range msgs {
		if m.Bytes != 100 {
			t.Fatalf("piece = %d, want 100", m.Bytes)
		}
	}
	if totalBytes(msgs) != 900 {
		t.Fatalf("total = %d", totalBytes(msgs))
	}
}

func TestExpandReduceScatterSplits(t *testing.T) {
	msgs := expand1(t, trace.Event{Rank: 2, Op: trace.OpReduceScatter, Peer: -1, Root: -1, Bytes: 30}, 4)
	if len(msgs) != 3 {
		t.Fatalf("len = %d, want 3", len(msgs))
	}
	for _, m := range msgs {
		if m.Bytes != 10 || m.Src != 2 {
			t.Fatalf("bad %+v", m)
		}
	}
}

func TestExpandBarrierAndZeroBytes(t *testing.T) {
	if msgs := expand1(t, trace.Event{Rank: 0, Op: trace.OpBarrier, Peer: -1, Root: -1}, 4); len(msgs) != 0 {
		t.Fatal("barrier should expand to nothing")
	}
	if msgs := expand1(t, trace.Event{Rank: 0, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 0}, 4); len(msgs) != 0 {
		t.Fatal("zero-byte allreduce should expand to nothing")
	}
	// Split smaller than participants rounds down to zero -> nothing.
	if msgs := expand1(t, trace.Event{Rank: 0, Op: trace.OpAlltoall, Peer: -1, Root: -1, Bytes: 2}, 4); len(msgs) != 0 {
		t.Fatal("sub-byte split should expand to nothing")
	}
}

func TestExpandSingleRankComm(t *testing.T) {
	// A communicator of size 1 never produces traffic.
	for _, op := range []trace.Op{trace.OpAllreduce, trace.OpAlltoall, trace.OpAllgather} {
		msgs := expand1(t, trace.Event{Rank: 0, Op: op, Peer: -1, Root: -1, Bytes: 100}, 1)
		if len(msgs) != 0 {
			t.Fatalf("%v on 1 rank produced %d messages", op, len(msgs))
		}
	}
}

func TestExpandSubCommunicator(t *testing.T) {
	world := mustWorld(t, 8)
	sub, err := NewComm([]int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := ExpandEvent(nil, trace.Event{Rank: 3, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 10},
		world, ExpandOptions{Comm: sub})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("len = %d, want 2", len(msgs))
	}
	dsts := map[int]bool{}
	for _, m := range msgs {
		dsts[m.Dst] = true
	}
	if !dsts[1] || !dsts[5] {
		t.Fatalf("wrong destinations %v", dsts)
	}
}

func TestExpandUnknownOpErrors(t *testing.T) {
	w := mustWorld(t, 2)
	_, err := ExpandEvent(nil, trace.Event{Rank: 0, Op: trace.Op(99), Peer: -1, Root: -1}, w, ExpandOptions{})
	if err == nil {
		t.Fatal("unknown op should error")
	}
}

func TestExpandTraceWholeCollective(t *testing.T) {
	// A 4-rank gather recorded once per rank expands to exactly 3 wire
	// messages overall (the root event contributes none).
	tr := &trace.Trace{Meta: trace.Meta{App: "g", Ranks: 4, WallTime: 1}}
	for r := 0; r < 4; r++ {
		tr.Events = append(tr.Events, trace.Event{Rank: r, Op: trace.OpGather, Peer: -1, Root: 0, Bytes: 10})
	}
	msgs := expandAll(t, tr)
	if len(msgs) != 3 {
		t.Fatalf("len = %d, want 3", len(msgs))
	}
	if totalBytes(msgs) != 30 {
		t.Fatalf("total = %d, want 30", totalBytes(msgs))
	}
}

func TestExpandTraceAlltoallPairCount(t *testing.T) {
	// n-rank alltoall recorded on each rank: n*(n-1) wire messages.
	const n = 6
	tr := &trace.Trace{Meta: trace.Meta{App: "a2a", Ranks: n, WallTime: 1}}
	for r := 0; r < n; r++ {
		tr.Events = append(tr.Events, trace.Event{Rank: r, Op: trace.OpAlltoall, Peer: -1, Root: -1, Bytes: 5 * (n - 1)})
	}
	msgs := expandAll(t, tr)
	if len(msgs) != n*(n-1) {
		t.Fatalf("len = %d, want %d", len(msgs), n*(n-1))
	}
	// Every ordered pair appears exactly once.
	seen := map[[2]int]int{}
	for _, m := range msgs {
		seen[[2]int{m.Src, m.Dst}]++
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("distinct pairs = %d, want %d", len(seen), n*(n-1))
	}
	for pair, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v appears %d times", pair, c)
		}
	}
}

// Property: expansion never produces self-messages, never loses more bytes
// than integer division can explain, and turns a send into exactly one
// message, from the rank to its peer.
func TestExpandInvariantsProperty(t *testing.T) {
	ops := []trace.Op{trace.OpSend, trace.OpBcast, trace.OpReduce, trace.OpAllreduce,
		trace.OpGather, trace.OpScatter, trace.OpAllgather, trace.OpAlltoall,
		trace.OpAlltoallv, trace.OpReduceScatter, trace.OpBarrier}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		w, err := World(n)
		if err != nil {
			return false
		}
		op := ops[rng.Intn(len(ops))]
		e := trace.Event{Rank: rng.Intn(n), Op: op, Peer: -1, Root: -1, Bytes: uint64(rng.Intn(1 << 16))}
		if op == trace.OpSend {
			e.Peer = (e.Rank + 1 + rng.Intn(n-1)) % n
		}
		switch op {
		case trace.OpBcast, trace.OpReduce, trace.OpGather, trace.OpScatter:
			e.Root = rng.Intn(n)
		}
		msgs, err := ExpandEvent(nil, e, w, ExpandOptions{})
		if err != nil {
			return false
		}
		if op == trace.OpSend && (len(msgs) != 1 || msgs[0] != Message{Src: e.Rank, Dst: e.Peer, Bytes: e.Bytes}) {
			return false
		}
		for _, m := range msgs {
			if m.Src == m.Dst {
				return false
			}
			if m.Src < 0 || m.Src >= n || m.Dst < 0 || m.Dst >= n {
				return false
			}
		}
		// Conservation: expanded volume never exceeds what the pattern
		// can source from this event.
		var max uint64
		switch op {
		case trace.OpSend, trace.OpReduce, trace.OpGather, trace.OpAlltoall,
			trace.OpAlltoallv, trace.OpReduceScatter, trace.OpScatter:
			max = e.Bytes
		case trace.OpBcast, trace.OpAllreduce, trace.OpAllgather:
			max = e.Bytes * uint64(n-1)
		case trace.OpBarrier:
			max = 0
		}
		return totalBytes(msgs) <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
