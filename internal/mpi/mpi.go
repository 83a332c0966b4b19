// Package mpi models the MPI semantics the locality study depends on:
// communicators, point-to-point messages, and the paper's translation of
// collective operations into point-to-point wire messages.
//
// The paper's network model is technology independent: instead of modeling
// vendor-specific collective algorithms (trees, multicast), every collective
// is "translated to point-to-point messages, which are sent in the pattern
// of the particular operation" — e.g. a gather becomes every rank sending a
// p2p message to the root, and vector-based collectives split their data
// evenly across all ranks. This maximally utilizes the network and gives a
// stable upper estimate. Package mpi implements exactly that translation.
package mpi

import (
	"fmt"

	"netloc/internal/trace"
)

// Message is a wire-level point-to-point transfer produced either directly
// by an MPI_Send or by expanding a collective.
type Message struct {
	Src   int
	Dst   int
	Bytes uint64
}

// Comm is an MPI communicator: an ordered group of global ranks. The study
// restricts itself to traces that only use the global communicator, but the
// type supports subsets so that cartesian sub-communicators can be modeled.
type Comm struct {
	n int
	// ranks maps communicator ranks to global ranks and index the
	// reverse; both are nil in the world communicator, where every rank
	// is its own.
	ranks []int
	index map[int]int
}

// World returns the global communicator of the given size. It holds no
// rank tables, so it costs the same at any size.
func World(n int) (*Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: non-positive communicator size %d", n)
	}
	return &Comm{n: n}, nil
}

// NewComm creates a communicator from an explicit global-rank list. The
// list must be non-empty and free of duplicates and negatives.
func NewComm(globalRanks []int) (*Comm, error) {
	if len(globalRanks) == 0 {
		return nil, fmt.Errorf("mpi: empty communicator")
	}
	index := make(map[int]int, len(globalRanks))
	for i, r := range globalRanks {
		if r < 0 {
			return nil, fmt.Errorf("mpi: negative rank %d", r)
		}
		if _, dup := index[r]; dup {
			return nil, fmt.Errorf("mpi: duplicate rank %d", r)
		}
		index[r] = i
	}
	return &Comm{n: len(globalRanks), ranks: append([]int(nil), globalRanks...), index: index}, nil
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.n }

// Global translates a communicator rank to a global rank.
func (c *Comm) Global(commRank int) (int, error) {
	switch {
	case commRank < 0 || commRank >= c.n:
		return 0, fmt.Errorf("mpi: comm rank %d out of range [0,%d)", commRank, c.n)
	case c.ranks == nil:
		return commRank, nil
	}
	return c.ranks[commRank], nil
}

// Ranks returns a copy of the communicator's global-rank list.
func (c *Comm) Ranks() []int {
	if c.ranks == nil {
		ranks := make([]int, c.n)
		for i := range ranks {
			ranks[i] = i
		}
		return ranks
	}
	return append([]int(nil), c.ranks...)
}

// CommRank translates a global rank to its rank within the communicator;
// ok is false when the rank is not a member.
func (c *Comm) CommRank(global int) (commRank int, ok bool) {
	if c.index == nil {
		if global < 0 || global >= c.n {
			return 0, false
		}
		return global, true
	}
	commRank, ok = c.index[global]
	return commRank, ok
}

// ExpandOptions tunes collective expansion.
type ExpandOptions struct {
	// Comm is the communicator collectives address. If nil, the world
	// communicator of the trace is used.
	Comm *Comm
	// Strategy selects the collective algorithm family; the zero value
	// is the paper's direct translation.
	Strategy Strategy
}

// ExpandEvent translates one traced event into wire messages, appending to
// dst and returning the extended slice.
//
// Translation rules (per the paper, Section 4.4):
//
//   - send: one message rank→peer (recv events carry no new volume and
//     expand to nothing).
//   - bcast/scatter: root sends to every other rank. For scatter (a vector
//     operation) the caller-side buffer is split evenly across ranks; for
//     bcast every rank receives the full buffer.
//   - reduce/gather: every non-root rank sends to the root (full buffer for
//     reduce, even split recorded caller-side for gather — each caller's
//     contribution is its own buffer, so the event's Bytes go to the root
//     unsplit; only the rank whose event it is contributes).
//   - allreduce: every rank sends its full buffer to every other rank.
//   - allgather: every rank sends its contribution to every other rank.
//   - alltoall/alltoallv: the caller's buffer is split evenly across the
//     other ranks, one message each.
//   - reducescatter: the caller's buffer is split evenly, one piece to each
//     other rank.
//   - barrier: no data volume, no messages.
//
// Collectives in dumpi traces are recorded once per participating rank, so
// per-event expansion only emits the messages *sourced* by the calling
// rank; iterating over all ranks' events yields the full pattern exactly
// once.
func ExpandEvent(dst []Message, e trace.Event, world *Comm, opts ExpandOptions) ([]Message, error) {
	comm := opts.Comm
	if comm == nil {
		comm = world
	}
	if e.Op.IsCollective() && opts.Strategy != StrategyDirect {
		return expandStrategic(dst, e, comm, opts.Strategy)
	}
	n := comm.Size()
	switch e.Op {
	case trace.OpSend:
		return append(dst, Message{Src: e.Rank, Dst: e.Peer, Bytes: e.Bytes}), nil

	case trace.OpRecv:
		return dst, nil // volume accounted on the send side

	case trace.OpBcast, trace.OpScatter, trace.OpScatterv:
		// Only the root sources traffic. The event stream has one event
		// per rank; emit only from the root's event.
		if e.Rank != e.Root {
			return dst, nil
		}
		per := e.Bytes
		if e.Op != trace.OpBcast && n > 1 {
			per = e.Bytes / uint64(n-1) // vector op: split evenly
		}
		if per == 0 {
			return dst, nil
		}
		for i := 0; i < n; i++ {
			g, err := comm.Global(i)
			if err != nil {
				return dst, err
			}
			if g == e.Rank {
				continue
			}
			dst = append(dst, Message{Src: e.Rank, Dst: g, Bytes: per})
		}
		return dst, nil

	case trace.OpReduce, trace.OpGather, trace.OpGatherv:
		// Every non-root rank sends its buffer to the root.
		if e.Rank == e.Root || e.Bytes == 0 {
			return dst, nil
		}
		return append(dst, Message{Src: e.Rank, Dst: e.Root, Bytes: e.Bytes}), nil

	case trace.OpAllreduce, trace.OpAllgather, trace.OpAllgatherv:
		// Full exchange: the calling rank sends its buffer to everyone.
		if e.Bytes == 0 || n <= 1 {
			return dst, nil
		}
		for i := 0; i < n; i++ {
			g, err := comm.Global(i)
			if err != nil {
				return dst, err
			}
			if g == e.Rank {
				continue
			}
			dst = append(dst, Message{Src: e.Rank, Dst: g, Bytes: e.Bytes})
		}
		return dst, nil

	case trace.OpAlltoall, trace.OpAlltoallv, trace.OpReduceScatter:
		// Vector exchange: the buffer is split evenly across the others.
		if n <= 1 {
			return dst, nil
		}
		per := e.Bytes / uint64(n-1)
		if per == 0 {
			return dst, nil
		}
		for i := 0; i < n; i++ {
			g, err := comm.Global(i)
			if err != nil {
				return dst, err
			}
			if g == e.Rank {
				continue
			}
			dst = append(dst, Message{Src: e.Rank, Dst: g, Bytes: per})
		}
		return dst, nil

	case trace.OpBarrier:
		return dst, nil

	default:
		return dst, fmt.Errorf("mpi: cannot expand op %v", e.Op)
	}
}
