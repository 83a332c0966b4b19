package netmodel

import (
	"math"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

func matrixOf(t *testing.T, ranks int, triples ...[3]uint64) *comm.Matrix {
	t.Helper()
	b, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range triples {
		if err := b.Add(int(tr[0]), int(tr[1]), tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Matrix()
}

func consecutive(t *testing.T, ranks, nodes int) *mapping.Mapping {
	t.Helper()
	mp, err := mapping.Consecutive(ranks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestRunPacketHopsTorus(t *testing.T) {
	// 2x2x2 torus, consecutive mapping. 0->1 is 1 hop; 0->7 is 3 hops.
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0->1: 5000 bytes = 2 packets; 0->7: 100 bytes = 1 packet.
	m := matrixOf(t, 8, [3]uint64{0, 1, 5000}, [3]uint64{0, 7, 100})
	res, err := Run(m, topo, consecutive(t, 8, 8), Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketHops != 2*1+1*3 {
		t.Fatalf("PacketHops = %d, want 5", res.PacketHops)
	}
	if res.Packets != 3 {
		t.Fatalf("Packets = %d, want 3", res.Packets)
	}
	wantAvg := 5.0 / 3.0
	if math.Abs(res.AvgHops-wantAvg) > 1e-12 {
		t.Fatalf("AvgHops = %v, want %v", res.AvgHops, wantAvg)
	}
	if res.Messages != 2 || res.InterNodeBytes != 5100 || res.IntraNodeBytes != 0 {
		t.Fatalf("msgs=%d inter=%d intra=%d", res.Messages, res.InterNodeBytes, res.IntraNodeBytes)
	}
	if res.ByteHops != 5000*1+100*3 {
		t.Fatalf("ByteHops = %d", res.ByteHops)
	}
}

func TestRunLinkConservation(t *testing.T) {
	// Sum of per-link bytes must equal Σ bytes·hops.
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := matrixOf(t, 27,
		[3]uint64{0, 26, 1000}, [3]uint64{3, 5, 400}, [3]uint64{7, 8, 12345},
		[3]uint64{26, 0, 1}, [3]uint64{13, 12, 7})
	res, err := Run(m, topo, consecutive(t, 27, 27), Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	var linkSum uint64
	for _, b := range res.LinkBytes {
		linkSum += b
	}
	if linkSum != res.ByteHops {
		t.Fatalf("link sum %d != byte hops %d", linkSum, res.ByteHops)
	}
}

func TestRunIntraNodeTrafficSkipsNetwork(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4 ranks on 2 nodes: ranks 0,1 -> node 0; ranks 2,3 -> node 1.
	mp, err := mapping.Blocked(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := matrixOf(t, 4, [3]uint64{0, 1, 500}, [3]uint64{0, 2, 700})
	res, err := Run(m, topo, mp, Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraNodeBytes != 500 || res.InterNodeBytes != 700 {
		t.Fatalf("intra=%d inter=%d", res.IntraNodeBytes, res.InterNodeBytes)
	}
	if res.Packets != 1 {
		t.Fatalf("packets = %d, want 1", res.Packets)
	}
}

func TestRunUtilization(t *testing.T) {
	// Single 1-hop message of known size on a 2x1x1 torus (1 link).
	topo, err := topology.NewTorus(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := matrixOf(t, 2, [3]uint64{0, 1, 1_200_000})
	res, err := Run(m, topo, consecutive(t, 2, 2), Options{
		BandwidthBytesPerSec: 12e6, // 12 MB/s for easy numbers
		WallTime:             1,
		TrackLinks:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedLinks != 1 {
		t.Fatalf("UsedLinks = %d, want 1", res.UsedLinks)
	}
	// 1.2 MB over a 12 MB/s link for 1 s: 10% utilization.
	if math.Abs(res.UtilizationPct-10) > 1e-9 {
		t.Fatalf("Utilization = %v%%, want 10%%", res.UtilizationPct)
	}
	if !res.UtilizationValid {
		t.Fatal("UtilizationValid = false for a computable ratio")
	}
}

func TestRunUtilizationZeroWallTime(t *testing.T) {
	topo, _ := topology.NewTorus(2, 1, 1)
	m := matrixOf(t, 2, [3]uint64{0, 1, 100})
	res, err := Run(m, topo, consecutive(t, 2, 2), Options{WallTime: 0, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UtilizationPct != 0 {
		t.Fatalf("utilization with zero wall time = %v", res.UtilizationPct)
	}
	// A zero wall time makes eq. 5 incomputable; the flag must say so
	// rather than leaving the zero indistinguishable from an idle network.
	if res.UtilizationValid {
		t.Fatal("UtilizationValid = true with zero wall time")
	}
}

func TestRunWithoutLinkTracking(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 2)
	m := matrixOf(t, 8, [3]uint64{0, 7, 4096})
	res, err := Run(m, topo, consecutive(t, 8, 8), Options{WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkBytes != nil || res.UsedLinks != 0 || res.UtilizationPct != 0 {
		t.Fatal("link accounting should be disabled")
	}
	if res.PacketHops != 3 {
		t.Fatalf("PacketHops = %d, want 3", res.PacketHops)
	}
}

func TestRunDragonflyGlobalShare(t *testing.T) {
	topo, err := topology.NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One intra-group message (0->2), one cross-group (0->8).
	m := matrixOf(t, 72, [3]uint64{0, 2, 100}, [3]uint64{0, 8, 100})
	res, err := Run(m, topo, consecutive(t, 72, 72), Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GlobalMsgShare-0.5) > 1e-12 {
		t.Fatalf("GlobalMsgShare = %v, want 0.5", res.GlobalMsgShare)
	}
}

func TestRunValidation(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 2)
	m := matrixOf(t, 8, [3]uint64{0, 1, 1})
	mpSmall := consecutive(t, 4, 8)
	if _, err := Run(m, topo, mpSmall, Options{WallTime: 1}); err == nil {
		t.Fatal("undersized mapping accepted")
	}
	mp := consecutive(t, 8, 8)
	if _, err := Run(m, topo, mp, Options{WallTime: -1}); err == nil {
		t.Fatal("negative wall time accepted")
	}
	if _, err := Run(m, topo, mp, Options{WallTime: 1, BandwidthBytesPerSec: -5}); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	big, err := mapping.Consecutive(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, topo, big, Options{WallTime: 1}); err == nil {
		t.Fatal("mapping node space larger than topology accepted")
	}
}

func TestInterNodeBytes(t *testing.T) {
	m := matrixOf(t, 8,
		[3]uint64{0, 1, 100}, // same node at 2/node
		[3]uint64{0, 2, 200}, // different nodes at 2/node
		[3]uint64{6, 7, 300}) // same node at 2/node
	inter, intra, err := InterNodeBytes(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inter != 200 || intra != 400 {
		t.Fatalf("inter=%d intra=%d", inter, intra)
	}
	// 1 per node: everything is inter-node.
	inter, intra, err = InterNodeBytes(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inter != 600 || intra != 0 {
		t.Fatalf("1/node: inter=%d intra=%d", inter, intra)
	}
	// All ranks on one node.
	inter, intra, err = InterNodeBytes(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if inter != 0 || intra != 600 {
		t.Fatalf("8/node: inter=%d intra=%d", inter, intra)
	}
	if _, _, err := InterNodeBytes(m, 0); err == nil {
		t.Fatal("zero per-node accepted")
	}
}

func TestMultiCoreSeries(t *testing.T) {
	// Ring of 8: at c=1 all inter (share 1.0); at c=2, pairs (0,1),(2,3),
	// (4,5),(6,7) become intra: 8 of 16 directed ring messages... the ring
	// here is unidirectional: 8 messages, 4 become intra -> 0.5.
	b, err := comm.NewBuilder(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := b.Add(i, (i+1)%8, 100); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Matrix()
	series, err := MultiCoreSeries(m, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.75 * 0.5 * 2 / 1.5, 0.125} // computed below
	// c=4: intra pairs are those within blocks {0..3},{4..7}: messages
	// 0->1,1->2,2->3,4->5,5->6,6->7 = 6 intra, 2 inter -> 0.25.
	want[2] = 0.25
	// c=8: only the wrap 7->0 stays... no: all ranks on one node -> 0.
	want[3] = 0
	for i := range want {
		if math.Abs(series[i]-want[i]) > 1e-12 {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
	if _, err := MultiCoreSeries(m, []int{0}); err == nil {
		t.Fatal("invalid cores accepted")
	}
}

func TestMultiCoreSeriesMonotoneForBlockLocalPatterns(t *testing.T) {
	// For a nearest-neighbor ring, inter-node share decreases as cores
	// per node double.
	b, err := comm.NewBuilder(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		_ = b.Add(i, (i+1)%64, 100)
		_ = b.Add(i, (i+63)%64, 100)
	}
	series, err := MultiCoreSeries(b.Matrix(), []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(series); i++ {
		if series[i] > series[i-1] {
			t.Fatalf("series not non-increasing: %v", series)
		}
	}
}

func TestRunGreedyMappingReducesPacketHops(t *testing.T) {
	// Ring traffic on a torus: greedy mapping should cut packet hops
	// versus a random placement.
	topo, err := topology.NewTorus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(27, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 27; i++ {
		_ = b.Add(i, (i+1)%27, 50000)
	}
	m := b.Matrix()
	greedy, err := mapping.Greedy(m, topo)
	if err != nil {
		t.Fatal(err)
	}
	random, err := mapping.Random(27, 27, 5)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := Run(m, topo, greedy, Options{WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(m, topo, random, Options{WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rg.PacketHops >= rr.PacketHops {
		t.Fatalf("greedy %d >= random %d packet hops", rg.PacketHops, rr.PacketHops)
	}
}

func TestRunClassUtilization(t *testing.T) {
	// Dragonfly cross-group traffic: global links are fewer than
	// terminals, so their per-link utilization is at least as high when
	// every message crosses one.
	topo, err := topology.NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := matrixOf(t, 72, [3]uint64{0, 70, 1 << 20}, [3]uint64{8, 60, 1 << 20})
	res, err := Run(m, topo, consecutive(t, 72, 72), Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassUtilizationPct == nil {
		t.Fatal("class utilization missing")
	}
	gu := res.ClassUtilizationPct[topology.ClassGlobal]
	tu := res.ClassUtilizationPct[topology.ClassTerminal]
	if gu <= 0 || tu <= 0 {
		t.Fatalf("class utilizations: global %v terminal %v", gu, tu)
	}
	// Both messages traverse exactly one global link each but two
	// terminal links each, and there are twice as many used terminals:
	// per-link global utilization equals per-link terminal utilization
	// here; at minimum it must be no lower.
	if gu < tu-1e-9 {
		t.Fatalf("global %v below terminal %v", gu, tu)
	}
}

func TestRunClassUtilizationAbsentWithoutTracking(t *testing.T) {
	topo, _ := topology.NewTorus(2, 2, 2)
	m := matrixOf(t, 8, [3]uint64{0, 1, 100})
	res, err := Run(m, topo, consecutive(t, 8, 8), Options{WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ClassUtilizationPct != nil {
		t.Fatal("class utilization should be nil without tracking")
	}
}

func TestRunLinkOccupancyExtremes(t *testing.T) {
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0->1 carries 5000 bytes over its single-hop link; 0->7 spreads 100
	// bytes over three links. Hottest link carries 5100 or 5000 depending
	// on route overlap; coolest used link carries 100.
	m := matrixOf(t, 8, [3]uint64{0, 1, 5000}, [3]uint64{0, 7, 100})
	res, err := Run(m, topo, consecutive(t, 8, 8), Options{WallTime: 1, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	var wantMax, wantMin uint64
	for _, b := range res.LinkBytes {
		if b == 0 {
			continue
		}
		if b > wantMax {
			wantMax = b
		}
		if wantMin == 0 || b < wantMin {
			wantMin = b
		}
	}
	if res.MaxLinkBytes != wantMax || res.MinUsedLinkBytes != wantMin {
		t.Fatalf("extremes = (%d, %d), want (%d, %d)",
			res.MaxLinkBytes, res.MinUsedLinkBytes, wantMax, wantMin)
	}
	if res.MaxLinkBytes < res.MinUsedLinkBytes || res.MinUsedLinkBytes == 0 {
		t.Fatalf("implausible extremes: %+v", res)
	}
	// Without tracking the extremes stay zero.
	bare, err := Run(m, topo, consecutive(t, 8, 8), Options{WallTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bare.MaxLinkBytes != 0 || bare.MinUsedLinkBytes != 0 {
		t.Fatalf("extremes populated without TrackLinks: %+v", bare)
	}
}
