package netmodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// referenceRun is Run by definition: every inter-node pair walks its own
// Route, whose length is its hop count (eq. 3), and the link-level
// metrics follow from the summed link bytes (eq. 5, used links only).
func referenceRun(t *testing.T, m *comm.Matrix, topo topology.Topology, mp *mapping.Mapping, opts Options) *Result {
	t.Helper()
	bw := opts.BandwidthBytesPerSec
	if bw == 0 {
		bw = DefaultBandwidth
	}
	res := &Result{Topology: topo.Name()}
	if opts.TrackLinks {
		res.LinkBytes = make([]uint64, len(topo.Links()))
	}
	classes := topo.LinkClasses()
	var globalMsgs uint64
	var route []int
	m.Each(func(k comm.Key, e comm.Entry) {
		ns, _ := mp.NodeOf(k.Src)
		nd, _ := mp.NodeOf(k.Dst)
		if ns == nd {
			res.IntraNodeBytes += e.Bytes
			return
		}
		var err error
		if route, err = topo.Route(ns, nd, route); err != nil {
			t.Fatal(err)
		}
		res.InterNodeBytes += e.Bytes
		res.Messages += e.Messages
		res.Packets += e.Packets
		res.PacketHops += e.Packets * uint64(len(route))
		res.ByteHops += e.Bytes * uint64(len(route))
		global := false
		for _, li := range route {
			if opts.TrackLinks {
				res.LinkBytes[li] += e.Bytes
			}
			global = global || classes[li] == topology.ClassGlobal
		}
		if global {
			globalMsgs += e.Messages
		}
	})
	if res.Packets > 0 {
		res.AvgHops = float64(res.PacketHops) / float64(res.Packets)
	}
	if !opts.TrackLinks {
		return res
	}
	classBytes := map[topology.LinkClass]uint64{}
	classUsed := map[topology.LinkClass]int{}
	for li, b := range res.LinkBytes {
		if b == 0 {
			continue
		}
		res.UsedLinks++
		classBytes[classes[li]] += b
		classUsed[classes[li]]++
		res.MaxLinkBytes = max(res.MaxLinkBytes, b)
		if res.MinUsedLinkBytes == 0 || b < res.MinUsedLinkBytes {
			res.MinUsedLinkBytes = b
		}
	}
	if res.Messages > 0 {
		res.GlobalMsgShare = float64(globalMsgs) / float64(res.Messages)
	}
	if res.UsedLinks > 0 && opts.WallTime > 0 {
		res.UtilizationValid = true
		res.UtilizationPct = 100 * float64(res.InterNodeBytes) / (bw * opts.WallTime * float64(res.UsedLinks))
		res.ClassUtilizationPct = map[topology.LinkClass]float64{}
		for c, b := range classBytes {
			res.ClassUtilizationPct[c] = 100 * float64(b) / (bw * opts.WallTime * float64(classUsed[c]))
		}
	}
	return res
}

// oracleTopologies covers every family. Torus and mesh rings have sizes
// 1, 2, odd and even; the fat trees have 1, 2 and 3 stages, with even
// and odd downlink counts.
func oracleTopologies(t *testing.T) []topology.Topology {
	t.Helper()
	var out []topology.Topology
	add := func(topo topology.Topology, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	for _, d := range [][3]int{{4, 4, 4}, {5, 3, 2}, {2, 2, 2}, {6, 1, 1}, {1, 7, 2}, {3, 4, 5}} {
		add(topology.NewTorus(d[0], d[1], d[2]))
		add(topology.NewMesh(d[0], d[1], d[2]))
	}
	for _, ft := range [][2]int{{8, 1}, {8, 2}, {6, 2}, {8, 3}, {6, 3}} {
		add(topology.NewFatTree(ft[0], ft[1]))
	}
	for _, df := range [][3]int{{4, 2, 2}, {2, 1, 1}, {6, 3, 1}} {
		d, err := topology.NewDragonfly(df[0], df[1], df[2])
		add(d, err)
		add(topology.NewValiant(d, 7))
	}
	add(topology.NewSlimFly(5, 2))
	add(topology.NewJellyfish(12, 3, 2, 1))
	add(topology.NewHyperX(3, 2, 2, 2))
	add(topology.NewHyperX(4, 1, 1, 3))
	return out
}

// oracleMatrices returns a dense all-to-all (dense rows), a sparse
// stencil (sparse rows), and an all-to-all where every fifth pair sent
// only zero-byte messages.
func oracleMatrices(t *testing.T, ranks int) map[string]*comm.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(ranks)))
	build := func(pairs func(add func(s, d int, bytes uint64))) *comm.Matrix {
		b, err := comm.NewBuilder(ranks, 0)
		if err != nil {
			t.Fatal(err)
		}
		pairs(func(s, d int, bytes uint64) {
			if s != d {
				if err := b.AddN(s, d, bytes, uint64(1+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
		})
		return b.Matrix()
	}
	return map[string]*comm.Matrix{
		"alltoall": build(func(add func(s, d int, bytes uint64)) {
			for s := 0; s < ranks; s++ {
				for d := 0; d < ranks; d++ {
					add(s, d, uint64(1+rng.Intn(20000)))
				}
			}
		}),
		"stencil": build(func(add func(s, d int, bytes uint64)) {
			for s := 0; s < ranks; s++ {
				for _, off := range []int{1, ranks - 1, 5, ranks - 5} {
					add(s, (s+off)%ranks, uint64(1+rng.Intn(9000)))
				}
			}
		}),
		"zerobytes": build(func(add func(s, d int, bytes uint64)) {
			for s := 0; s < ranks; s++ {
				for d := 0; d < ranks; d++ {
					if (s+d)%5 == 0 {
						add(s, d, 0)
					} else {
						add(s, d, uint64(rng.Intn(5000)))
					}
				}
			}
		}),
	}
}

// TestRunMatchesPerPairRoutes is the cross-family flow oracle: Run's
// whole Result equals the per-pair Route walk's, on every family, under
// consecutive, random, blocked and greedy mappings, over dense, sparse
// and zero-byte traffic, with and without link tracking. It also checks
// two identities on Run's own numbers: the link bytes sum to ByteHops,
// and PacketHops is the summed route lengths weighted by packets.
func TestRunMatchesPerPairRoutes(t *testing.T) {
	for _, topo := range oracleTopologies(t) {
		n := topo.Nodes()
		one := min(n, 40)     // one rank per node
		two := min(2*n-1, 60) // two ranks per node, the last node half full
		mappings := map[string]func(*comm.Matrix) (*mapping.Mapping, error){
			"consecutive": func(*comm.Matrix) (*mapping.Mapping, error) { return mapping.Consecutive(one, n) },
			"random":      func(*comm.Matrix) (*mapping.Mapping, error) { return mapping.Random(one, n, int64(n)) },
			"blocked":     func(*comm.Matrix) (*mapping.Mapping, error) { return mapping.Blocked(two, n, 2) },
			"greedy":      func(m *comm.Matrix) (*mapping.Mapping, error) { return mapping.Greedy(m, topo) },
		}
		byRanks := map[int]map[string]*comm.Matrix{one: oracleMatrices(t, one), two: oracleMatrices(t, two)}
		for mname, build := range mappings {
			ranks := one
			if mname == "blocked" {
				ranks = two
			}
			for tname, m := range byRanks[ranks] {
				mp, err := build(m)
				if err != nil {
					t.Fatal(err)
				}
				for _, track := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/links=%v", topo.Name(), mname, tname, track)
					opts := Options{WallTime: 0.5, TrackLinks: track}
					got, err := Run(m, topo, mp, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := referenceRun(t, m, topo, mp, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Run differs from the per-pair route walk\n got %+v\nwant %+v", name, got, want)
					}
					checkHopIdentities(t, name, m, topo, mp, got)
				}
			}
		}
	}
}

// checkHopIdentities asserts ByteHops == Σ LinkBytes (when links are
// tracked) and PacketHops == Σ packets × len(Route) over inter-node pairs.
func checkHopIdentities(t *testing.T, name string, m *comm.Matrix, topo topology.Topology, mp *mapping.Mapping, res *Result) {
	t.Helper()
	if res.LinkBytes != nil {
		var sum uint64
		for _, b := range res.LinkBytes {
			sum += b
		}
		if sum != res.ByteHops {
			t.Fatalf("%s: link bytes sum to %d, ByteHops = %d", name, sum, res.ByteHops)
		}
	}
	var packetHops uint64
	var route []int
	m.Each(func(k comm.Key, e comm.Entry) {
		ns, _ := mp.NodeOf(k.Src)
		nd, _ := mp.NodeOf(k.Dst)
		if ns == nd {
			return
		}
		var err error
		if route, err = topo.Route(ns, nd, route); err != nil {
			t.Fatal(err)
		}
		packetHops += e.Packets * uint64(len(route))
	})
	if packetHops != res.PacketHops {
		t.Fatalf("%s: Σ packets × route length = %d, PacketHops = %d", name, packetHops, res.PacketHops)
	}
}
