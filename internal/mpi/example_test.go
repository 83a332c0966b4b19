package mpi_test

import (
	"fmt"
	"sort"

	"netloc/internal/mpi"
	"netloc/internal/trace"
)

// The paper's direct translation turns a gather into every rank sending
// its buffer straight to the root.
func ExampleExpandEvent() {
	world, _ := mpi.World(4)
	event := trace.Event{Rank: 2, Op: trace.OpGather, Peer: -1, Root: 0, Bytes: 100}
	msgs, _ := mpi.ExpandEvent(nil, event, world, mpi.ExpandOptions{})
	for _, m := range msgs {
		fmt.Printf("%d -> %d: %d bytes\n", m.Src, m.Dst, m.Bytes)
	}
	// Output:
	// 2 -> 0: 100 bytes
}

// Ring collectives (an ablation strategy) send everything to the +1
// neighbor: an 800-byte allreduce over 8 ranks becomes 14 chunks of 100
// bytes from each rank to its successor.
func ExampleExpandEvent_ringStrategy() {
	world, _ := mpi.World(8)
	event := trace.Event{Rank: 3, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 800}
	msgs, _ := mpi.ExpandEvent(nil, event, world, mpi.ExpandOptions{Strategy: mpi.StrategyRing})
	fmt.Printf("%d messages, all to rank %d, %d bytes each\n",
		len(msgs), msgs[0].Dst, msgs[0].Bytes)
	// Output:
	// 14 messages, all to rank 4, 100 bytes each
}

// Cartesian communicators recover the geometry dumpi traces lose: a 3x4
// grid and its row sub-communicator.
func ExampleCartCreate() {
	world, _ := mpi.World(12)
	cart, _ := mpi.CartCreate(world, []int{3, 4}, []bool{true, false})

	coords, _ := cart.Coords(5)
	fmt.Println("rank 5 coords:", coords)

	row, _ := cart.Sub(5, []bool{false, true})
	ranks := row.Comm().Ranks()
	sort.Ints(ranks)
	fmt.Println("row of rank 5:", ranks)
	// Output:
	// rank 5 coords: [1 1]
	// row of rank 5: [4 5 6 7]
}
