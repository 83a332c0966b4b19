package mpi

import (
	"fmt"

	"netloc/internal/trace"
)

// Strategy selects how collectives are translated into wire messages.
//
// The paper deliberately uses the Direct translation ("there is no tree
// structure or similar to spread collectives over the network") to stay
// technology independent and maximally utilize the network. Real MPI
// libraries use algorithmic collectives instead; the Tree and Ring
// strategies model the two most common families so their effect on the
// locality metrics can be quantified (the repository's ablation
// benchmarks do exactly that).
type Strategy uint8

const (
	// StrategyDirect is the paper's translation: rooted collectives
	// become root↔all fan-in/fan-out, unrooted ones full exchanges.
	StrategyDirect Strategy = iota
	// StrategyTree uses binomial trees for the rooted collectives
	// (bcast, reduce, gather, scatter) and recursive-doubling-style
	// log-partner exchanges for allreduce/allgather. Message counts drop
	// from O(n) per root to O(log n) per rank.
	StrategyTree
	// StrategyRing uses ring algorithms for the unrooted collectives
	// (allreduce, allgather, reducescatter): every rank talks only to
	// its +1 neighbor, turning collectives into perfectly local traffic.
	// Rooted collectives fall back to the tree algorithm.
	StrategyRing
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyDirect:
		return "direct"
	case StrategyTree:
		return "tree"
	case StrategyRing:
		return "ring"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// ParseStrategy is the inverse of Strategy.String. The empty string
// means the paper's direct translation. It backs the -strategy CLI flags
// and the service's strategy query parameter.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "", "direct":
		return StrategyDirect, nil
	case "tree":
		return StrategyTree, nil
	case "ring":
		return StrategyRing, nil
	}
	return 0, fmt.Errorf("mpi: unknown strategy %q (direct|tree|ring)", s)
}

// binomialChildren returns the children of rank r in a binomial tree
// rooted at root over n ranks (ranks are rotated so the root is vertex 0).
func binomialChildren(r, root, n int) []int {
	v := (r - root + n) % n // virtual rank, root at 0
	var children []int
	// v sends to v + 2^k for every 2^k above v's highest set bit with
	// v + 2^k < n.
	hb := highestBit(v)
	for m := nextPow2After(hb, v); m < n; m <<= 1 {
		c := v + m
		if c < n {
			children = append(children, (c+root)%n)
		}
	}
	return children
}

// highestBit returns the value of the highest set bit of v (0 for v==0).
func highestBit(v int) int {
	h := 0
	for b := 1; b <= v; b <<= 1 {
		if v&b != 0 {
			h = b
		}
	}
	return h
}

// nextPow2After returns the smallest power of two strictly greater than
// hb (1 when hb is 0); used to find the first child offset of v.
func nextPow2After(hb, v int) int {
	if v == 0 {
		return 1
	}
	return hb << 1
}

// binomialParent returns the parent of rank r in the binomial tree rooted
// at root, or -1 for the root itself.
func binomialParent(r, root, n int) int {
	v := (r - root + n) % n
	if v == 0 {
		return -1
	}
	p := v - highestBit(v)
	return (p + root) % n
}

// subtreeSize returns the number of vertices in the binomial subtree
// rooted at virtual rank v over n ranks.
func subtreeSize(v, n int) int {
	size := 1
	hb := highestBit(v)
	for m := nextPow2After(hb, v); ; m <<= 1 {
		c := v + m
		if c >= n {
			break
		}
		size += subtreeSize(c, n)
	}
	return size
}

// expandStrategic dispatches a collective event to the selected
// algorithmic expansion, translating between global ranks and
// communicator-virtual ranks.
func expandStrategic(dst []Message, e trace.Event, comm *Comm, s Strategy) ([]Message, error) {
	vr, ok := comm.CommRank(e.Rank)
	if !ok {
		return dst, fmt.Errorf("mpi: rank %d not in communicator", e.Rank)
	}
	vroot := 0
	switch e.Op {
	case trace.OpBcast, trace.OpReduce, trace.OpGather, trace.OpGatherv,
		trace.OpScatter, trace.OpScatterv:
		vroot, ok = comm.CommRank(e.Root)
		if !ok {
			return dst, fmt.Errorf("mpi: root %d not in communicator", e.Root)
		}
	}
	switch s {
	case StrategyTree:
		return expandTreeEvent(dst, e, comm, vr, vroot)
	case StrategyRing:
		return expandRingEvent(dst, e, comm, vr, vroot)
	default:
		return dst, fmt.Errorf("mpi: unknown strategy %v", s)
	}
}

// expandTreeEvent emits the messages the calling rank (virtual rank vr,
// virtual root vroot) sources under the tree strategy.
func expandTreeEvent(dst []Message, e trace.Event, comm *Comm, vr, vroot int) ([]Message, error) {
	n := comm.Size()
	if n <= 1 || e.Bytes == 0 {
		return dst, nil
	}
	var emitErr error
	emit := func(toVirtual int, bytes uint64) {
		if bytes == 0 || toVirtual == vr || emitErr != nil {
			return
		}
		g, err := comm.Global(toVirtual)
		if err != nil {
			emitErr = err
			return
		}
		dst = append(dst, Message{Src: e.Rank, Dst: g, Bytes: bytes})
	}
	switch e.Op {
	case trace.OpBcast:
		for _, c := range binomialChildren(vr, vroot, n) {
			emit(c, e.Bytes)
		}
	case trace.OpScatter, trace.OpScatterv:
		// Each tree edge carries the chunks of the child's whole
		// subtree. The caller-side buffer covers all n-1 receivers.
		per := e.Bytes / uint64(n-1)
		for _, c := range binomialChildren(vr, vroot, n) {
			v := (c - vroot + n) % n
			emit(c, per*uint64(subtreeSize(v, n)))
		}
	case trace.OpReduce:
		if p := binomialParent(vr, vroot, n); p >= 0 {
			emit(p, e.Bytes)
		}
	case trace.OpGather, trace.OpGatherv:
		if p := binomialParent(vr, vroot, n); p >= 0 {
			v := (vr - vroot + n) % n
			emit(p, e.Bytes*uint64(subtreeSize(v, n)))
		}
	case trace.OpAllreduce, trace.OpAllgather, trace.OpAllgatherv:
		// Recursive doubling: log2(n) partners at distances 1,2,4,...
		// (wrapped for non-powers of two).
		for m := 1; m < n; m <<= 1 {
			emit((vr+m)%n, e.Bytes)
		}
	case trace.OpAlltoall, trace.OpAlltoallv, trace.OpReduceScatter:
		// Pairwise rounds, same pair volume as direct.
		per := e.Bytes / uint64(n-1)
		for round := 1; round < n; round++ {
			emit((vr+round)%n, per)
		}
	case trace.OpBarrier:
		// Dissemination barrier: zero payload, nothing to emit.
	default:
		return dst, fmt.Errorf("mpi: tree strategy cannot expand %v", e.Op)
	}
	return dst, emitErr
}

// expandRingEvent emits the messages the calling rank sources under the
// ring strategy; rooted collectives use the tree algorithm.
func expandRingEvent(dst []Message, e trace.Event, comm *Comm, vr, vroot int) ([]Message, error) {
	n := comm.Size()
	if n <= 1 || e.Bytes == 0 {
		return dst, nil
	}
	nextG, err := comm.Global((vr + 1) % n)
	if err != nil {
		return dst, err
	}
	emit := func(bytes uint64, count int) {
		if bytes == 0 || nextG == e.Rank {
			return
		}
		for i := 0; i < count; i++ {
			dst = append(dst, Message{Src: e.Rank, Dst: nextG, Bytes: bytes})
		}
	}
	switch e.Op {
	case trace.OpAllreduce:
		// Ring allreduce: 2(n-1) chunks of size B/n to the +1 neighbor.
		emit(e.Bytes/uint64(n), 2*(n-1))
		return dst, nil
	case trace.OpAllgather, trace.OpAllgatherv:
		// Ring allgather: n-1 full contributions passed around.
		emit(e.Bytes, n-1)
		return dst, nil
	case trace.OpReduceScatter:
		emit(e.Bytes/uint64(n), n-1)
		return dst, nil
	case trace.OpBarrier:
		return dst, nil
	default:
		return expandTreeEvent(dst, e, comm, vr, vroot)
	}
}
