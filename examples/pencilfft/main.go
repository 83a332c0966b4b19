// Pencilfft builds the communication pattern the real BigFFT uses — a 2D
// pencil decomposition whose transposes are all-to-alls on *row and column
// sub-communicators* rather than on MPI_COMM_WORLD — using the cartesian
// communicator support (MPI_Cart_create / MPI_Cart_sub) whose absence from
// dumpi traces forced the paper to exclude such workloads. It then
// compares the locality of pencil transposes against the global all-to-all
// the paper's BigFFT trace performs.
package main

import (
	"fmt"
	"log"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/mpi"
	"netloc/internal/netmodel"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

const (
	gridSide   = 10 // 10x10 pencil grid = 100 ranks
	ranks      = gridSide * gridSide
	chunk      = 1 << 16 // bytes each rank contributes per transpose
	transposes = 4
)

func main() {
	world, err := mpi.World(ranks)
	if err != nil {
		log.Fatal(err)
	}
	cart, err := mpi.CartCreate(world, []int{gridSide, gridSide}, []bool{false, false})
	if err != nil {
		log.Fatal(err)
	}

	// Pencil FFT: every rank transposes within its row communicator,
	// then within its column communicator. Expand the allgather-pattern
	// transposes on those sub-communicators into wire messages.
	pencil, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		log.Fatal(err)
	}
	var buf []mpi.Message
	for r := 0; r < ranks; r++ {
		for _, keep := range [][]bool{{false, true}, {true, false}} {
			sub, err := cart.Sub(r, keep)
			if err != nil {
				log.Fatal(err)
			}
			ev := trace.Event{Rank: r, Op: trace.OpAllgatherv, Peer: -1, Root: -1, Bytes: chunk * transposes}
			buf, err = mpi.ExpandEvent(buf[:0], ev, world, mpi.ExpandOptions{Comm: sub.Comm()})
			if err != nil {
				log.Fatal(err)
			}
			for _, m := range buf {
				if err := pencil.Add(m.Src, m.Dst, m.Bytes); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Reference: the paper's BigFFT pattern — the same volume as one
	// global all-to-all on MPI_COMM_WORLD.
	global, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		ev := trace.Event{Rank: r, Op: trace.OpAllgatherv, Peer: -1, Root: -1, Bytes: chunk * transposes * 2 / 10}
		buf, err = mpi.ExpandEvent(buf[:0], ev, world, mpi.ExpandOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range buf {
			if err := global.Add(m.Src, m.Dst, m.Bytes); err != nil {
				log.Fatal(err)
			}
		}
	}

	cfg, err := topology.TorusConfig(ranks)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		log.Fatal(err)
	}
	mp, err := mapping.Consecutive(ranks, topo.Nodes())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("2D pencil FFT vs global all-to-all, %d ranks on torus %s\n\n", ranks, cfg)
	for _, c := range []struct {
		name string
		m    *comm.Matrix
	}{
		{"pencil (row+col sub-comms)", pencil.Matrix()},
		{"global all-to-all", global.Matrix()},
	} {
		res, err := netmodel.Run(c.m, topo, mp, netmodel.Options{WallTime: 1, TrackLinks: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s pairs %5d  volume %6.1f MB  avg hops %.2f  packet hops %.3g\n",
			c.name, c.m.Pairs(), float64(c.m.TotalBytes())/1e6, res.AvgHops, float64(res.PacketHops))
	}
	fmt.Println("\nRow transposes stay within rank-ID distance", gridSide-1,
		"and column transposes hit fixed strides of", gridSide, "—")
	fmt.Println("structure a mapper can exploit, unlike the global transpose that")
	fmt.Println("touches every pair. This is why communicator geometry matters and")
	fmt.Println("why the paper had to exclude cart-communicator traces.")
}
