package simnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

func torus222(t *testing.T) topology.Topology {
	t.Helper()
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func consecutive(t *testing.T, ranks, nodes int) *mapping.Mapping {
	t.Helper()
	mp, err := mapping.Consecutive(ranks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestSimulateSingleMessage(t *testing.T) {
	// One 12 kB message over one hop at 12 kB/s: serialization 1 s,
	// no pipelining hops, latency exactly 1 s.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 10},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
		PacketBytes:          4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Fatalf("messages = %d", stats.Messages)
	}
	if math.Abs(stats.MeanLatency-1.0) > 1e-9 {
		t.Fatalf("latency = %v, want 1.0", stats.MeanLatency)
	}
	if stats.MeanQueueDelay != 0 || stats.DelayedShare != 0 {
		t.Fatalf("unexpected queueing: %+v", stats)
	}
	if math.Abs(stats.Makespan-1.0) > 1e-9 {
		t.Fatalf("makespan = %v", stats.Makespan)
	}
	// Single used link busy for the whole makespan: 100%.
	if math.Abs(stats.MeasuredUtilizationPct-100) > 1e-9 {
		t.Fatalf("utilization = %v", stats.MeasuredUtilizationPct)
	}
}

func TestSimulateMultiHopPipelining(t *testing.T) {
	// 0 -> 7 is 3 hops on the 2x2x2 torus. Cut-through: latency =
	// 2 * hopLat + serialization.
	const bw = 4096.0 // packet time = 1 s
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 7, Root: -1, Bytes: 8192, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: bw,
		PacketBytes:          4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*1.0 + 2.0 // two extra hops + 2 s serialization
	if math.Abs(stats.MeanLatency-want) > 1e-9 {
		t.Fatalf("latency = %v, want %v", stats.MeanLatency, want)
	}
	if math.Abs(stats.MeanIdealLatency-want) > 1e-9 {
		t.Fatalf("ideal = %v, want %v", stats.MeanIdealLatency, want)
	}
}

func TestSimulateContentionQueues(t *testing.T) {
	// Two messages released together over the same link: the second
	// waits for the first.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d", stats.Messages)
	}
	// First: 1 s. Second: waits 1 s then 1 s -> 2 s. Mean 1.5 s.
	if math.Abs(stats.MeanLatency-1.5) > 1e-9 {
		t.Fatalf("mean latency = %v, want 1.5", stats.MeanLatency)
	}
	if math.Abs(stats.MeanQueueDelay-0.5) > 1e-9 {
		t.Fatalf("queue delay = %v, want 0.5", stats.MeanQueueDelay)
	}
	if math.Abs(stats.DelayedShare-0.5) > 1e-9 {
		t.Fatalf("delayed share = %v, want 0.5", stats.DelayedShare)
	}
	if math.Abs(stats.MaxLatency-2.0) > 1e-9 {
		t.Fatalf("max latency = %v, want 2", stats.MaxLatency)
	}
}

func TestSimulateDisjointPathsDontQueue(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
			{Rank: 2, Op: trace.OpSend, Peer: 3, Root: -1, Bytes: 12000, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DelayedShare != 0 || stats.MeanQueueDelay != 0 {
		t.Fatalf("disjoint paths queued: %+v", stats)
	}
}

func TestSimulateCollectiveExpansion(t *testing.T) {
	// A bcast from rank 0 on 4 ranks expands to 3 messages.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 4, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 1000, Start: 0, End: 1},
			{Rank: 1, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 1000, Start: 0, End: 1},
			{Rank: 2, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 1000, Start: 0, End: 1},
			{Rank: 3, Op: trace.OpBcast, Peer: -1, Root: 0, Bytes: 1000, Start: 0, End: 1},
		},
	}
	topo, err := topology.NewTorus(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Simulate(tr, topo, consecutive(t, 4, 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 3 {
		t.Fatalf("messages = %d, want 3", stats.Messages)
	}
}

func TestSimulateIntraNodeSkipped(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 4, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 100, Start: 0, End: 1},
		},
	}
	topo, err := topology.NewTorus(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.Blocked(4, 2, 2) // ranks 0,1 share node 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(tr, topo, mp, Options{}); err == nil {
		t.Fatal("all-intra-node should error (nothing to simulate)")
	}
}

func TestSimulateMakespanIgnoresIntraNodeHead(t *testing.T) {
	// Regression: the makespan window used to open at msgs[0].release
	// even when that message stayed on-node and never touched the
	// network. Here an intra-node message at t=0 precedes the only wire
	// message (released at t=10, 12 kB over one hop at 12 kB/s = 1 s).
	// The window must be [10, 11] — makespan 1 s, one link busy the
	// whole window, 100% utilization — not the skewed [0, 11].
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 100, Start: 0, End: 1},
			{Rank: 0, Op: trace.OpSend, Peer: 2, Root: -1, Bytes: 12000, Start: 10_000_000_000, End: 11},
		},
	}
	mp, err := mapping.Blocked(8, 4, 2) // ranks 0,1 share node 0; rank 2 on node 1
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Simulate(tr, torus222(t), mp, Options{
		BandwidthBytesPerSec: 12000,
		PacketBytes:          4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 1 {
		t.Fatalf("messages = %d, want 1 (intra-node skipped)", stats.Messages)
	}
	if math.Abs(stats.Makespan-1.0) > 1e-9 {
		t.Fatalf("makespan = %v, want 1.0 (window must start at the first wire message)", stats.Makespan)
	}
	if math.Abs(stats.MeasuredUtilizationPct-100) > 1e-9 {
		t.Fatalf("utilization = %v%%, want 100%%", stats.MeasuredUtilizationPct)
	}
}

// Regression: withDefaults silently accepted non-positive bandwidth and
// packet sizes (a zero value means "use the default", but explicit
// negatives flowed straight into the latency math). Normalize must
// reject them with a listing-style error naming every bad field.
func TestOptionsNormalizeRejectsNonPositive(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want []string // substrings the error must mention
	}{
		{"negative bandwidth", Options{BandwidthBytesPerSec: -1}, []string{"bandwidth"}},
		{"NaN bandwidth", Options{BandwidthBytesPerSec: math.NaN()}, []string{"bandwidth"}},
		{"infinite bandwidth", Options{BandwidthBytesPerSec: math.Inf(1)}, []string{"bandwidth"}},
		{"negative packet size", Options{PacketBytes: -4096}, []string{"packet size"}},
		{
			"everything at once",
			Options{BandwidthBytesPerSec: -12e9, PacketBytes: -1},
			[]string{"bandwidth", "packet size"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.opts.Normalize()
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted invalid options", c.opts)
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
	// The zero value still means "use the defaults" — nothing may break
	// the Options{} callers all over the tree.
	o, err := Options{}.Normalize()
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	if o.BandwidthBytesPerSec != 12e9 || o.PacketBytes == 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	// Simulate rejects the same options end to end.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 100},
		},
	}
	if _, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{BandwidthBytesPerSec: -5}); err == nil {
		t.Fatal("Simulate accepted negative bandwidth")
	}
}

func TestSimulateWorkloadEndToEnd(t *testing.T) {
	// Full pipeline on a real generated workload: latencies are finite,
	// utilization sane, and heavier contention on a slower network.
	tr := genTrace(t, "LULESH", 64)
	cfg, err := topology.TorusConfig(64)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	mp := consecutive(t, 64, topo.Nodes())

	fast, err := Simulate(tr, topo, mp, Options{}) // 12 GB/s
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Simulate(tr, topo, mp, Options{BandwidthBytesPerSec: 12e6})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Messages != slow.Messages {
		t.Fatal("message counts differ")
	}
	if !(fast.MeanLatency < slow.MeanLatency) {
		t.Fatalf("fast %v >= slow %v", fast.MeanLatency, slow.MeanLatency)
	}
	if fast.MeanLatency <= 0 || math.IsNaN(fast.MeanLatency) {
		t.Fatalf("bad latency %v", fast.MeanLatency)
	}
	if fast.P99Latency < fast.MedianLatency {
		t.Fatal("p99 below median")
	}
	if fast.MaxLatency < fast.P99Latency {
		t.Fatal("max below p99")
	}
	if fast.MeasuredUtilizationPct < 0 || fast.MeasuredUtilizationPct > 100 {
		t.Fatalf("utilization = %v", fast.MeasuredUtilizationPct)
	}
	if fast.MaxLinkBusyPct < fast.MeasuredUtilizationPct {
		t.Fatal("hottest link below mean busy share")
	}
}

func TestSimulateTopologyOrderingAtLowLoad(t *testing.T) {
	// At low load, simulated mean latency follows the hop ordering of
	// the static model: torus < fat tree < dragonfly for LULESH-64.
	tr := genTrace(t, "LULESH", 64)
	var lat []float64
	for _, build := range []func() (topology.Topology, error){
		func() (topology.Topology, error) { return topology.NewTorus(4, 4, 4) },
		func() (topology.Topology, error) { return topology.NewFatTree(48, 2) },
		func() (topology.Topology, error) { return topology.NewDragonfly(4, 2, 2) },
	} {
		topo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Simulate(tr, topo, consecutive(t, 64, topo.Nodes()), Options{})
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, stats.MeanIdealLatency)
	}
	if !(lat[0] < lat[1] && lat[1] < lat[2]) {
		t.Fatalf("ideal latency ordering violated: %v", lat)
	}
}

func TestSlackness(t *testing.T) {
	// Rank 0 sends to rank 1 at t=0 (12 kB at 12 kB/s: arrives t=1).
	// Rank 1's own next message departs at t=5: slack = 4 s, which
	// covers the 1 s serialization.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
			{Rank: 1, Op: trace.OpSend, Peer: 2, Root: -1, Bytes: 12000, Start: 5_000_000_000, End: 5_000_000_001},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlackSamples != 1 {
		t.Fatalf("slack samples = %d, want 1", stats.SlackSamples)
	}
	if math.Abs(stats.MeanSlack-4.0) > 1e-9 {
		t.Fatalf("mean slack = %v, want 4", stats.MeanSlack)
	}
	if stats.SlackCoverShare != 1 {
		t.Fatalf("cover share = %v, want 1", stats.SlackCoverShare)
	}
}

func TestSlacknessTightReceiver(t *testing.T) {
	// The receiver fires again only 0.1 s after arrival: slack below the
	// serialization time, so the link could not run slower.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
			{Rank: 1, Op: trace.OpSend, Peer: 2, Root: -1, Bytes: 12000, Start: 1_100_000_000, End: 1_100_000_001},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlackSamples != 1 {
		t.Fatalf("slack samples = %d", stats.SlackSamples)
	}
	if math.Abs(stats.MeanSlack-0.1) > 1e-9 {
		t.Fatalf("mean slack = %v, want 0.1", stats.MeanSlack)
	}
	if stats.SlackCoverShare != 0 {
		t.Fatalf("cover share = %v, want 0", stats.SlackCoverShare)
	}
}

func TestSlacknessNoFollowUpExcluded(t *testing.T) {
	// The receiving rank never sends again: no slack sample.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 100},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SlackSamples != 0 || stats.MeanSlack != 0 {
		t.Fatalf("unexpected slack: %+v", stats)
	}
}

func TestNextReleaseAfter(t *testing.T) {
	timeline := []float64{1, 2, 5, 9}
	if v, ok := nextReleaseAfter(timeline, 0); !ok || v != 1 {
		t.Fatalf("got %v, %v", v, ok)
	}
	if v, ok := nextReleaseAfter(timeline, 2); !ok || v != 5 {
		t.Fatalf("got %v, %v", v, ok)
	}
	if _, ok := nextReleaseAfter(timeline, 9); ok {
		t.Fatal("past-end lookup succeeded")
	}
	if _, ok := nextReleaseAfter(nil, 0); ok {
		t.Fatal("empty timeline lookup succeeded")
	}
}

// Property: over random small traces, simulated latency never beats the
// zero-contention ideal, the makespan covers the longest message, and all
// probabilities stay in [0,1].
func TestSimulateInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 4 + rng.Intn(12)
		tr := &trace.Trace{Meta: trace.Meta{App: "prop", Ranks: ranks, WallTime: 10}}
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			src := rng.Intn(ranks)
			dst := (src + 1 + rng.Intn(ranks-1)) % ranks
			tr.Events = append(tr.Events, trace.Event{
				Rank: src, Op: trace.OpSend, Peer: dst, Root: -1,
				Bytes: uint64(1 + rng.Intn(100000)),
				Start: uint64(rng.Intn(1_000_000_000)),
			})
		}
		cfg, err := topology.TorusConfig(ranks)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		mp := consecutive(t, ranks, topo.Nodes())
		stats, err := Simulate(tr, topo, mp, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.MeanLatency+1e-12 < stats.MeanIdealLatency {
			t.Fatalf("seed %d: latency %v below ideal %v", seed, stats.MeanLatency, stats.MeanIdealLatency)
		}
		if stats.Makespan+1e-12 < stats.MaxLatency {
			t.Fatalf("seed %d: makespan %v below max latency %v", seed, stats.Makespan, stats.MaxLatency)
		}
		for _, p := range []float64{stats.DelayedShare, stats.SlackCoverShare} {
			if p < 0 || p > 1 {
				t.Fatalf("seed %d: probability %v out of range", seed, p)
			}
		}
		if stats.MeasuredUtilizationPct < 0 || stats.MeasuredUtilizationPct > 100 {
			t.Fatalf("seed %d: utilization %v", seed, stats.MeasuredUtilizationPct)
		}
	}
}

func TestSimulateOccupancyAndHops(t *testing.T) {
	// 0->1 is one hop on a 2x2x2 torus; 0->7 is three hops. Two network
	// messages traverse 4 links total, all four busy shares nonzero.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "s", Ranks: 8, WallTime: 10},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 12000, Start: 0, End: 1},
			{Rank: 0, Op: trace.OpSend, Peer: 7, Root: -1, Bytes: 6000, Start: 0, End: 1},
		},
	}
	stats, err := Simulate(tr, torus222(t), consecutive(t, 8, 8), Options{
		BandwidthBytesPerSec: 12000,
		PacketBytes:          4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HopsTraversed != 4 {
		t.Fatalf("HopsTraversed = %d, want 4", stats.HopsTraversed)
	}
	if stats.UsedLinks < 2 || stats.UsedLinks > 4 {
		t.Fatalf("UsedLinks = %d, want 2..4 (routes may share links)", stats.UsedLinks)
	}
	if stats.MinLinkBusyPct <= 0 || stats.MaxLinkBusyPct < stats.MinLinkBusyPct {
		t.Fatalf("busy extremes = (%v, %v)", stats.MinLinkBusyPct, stats.MaxLinkBusyPct)
	}
	if stats.MeasuredUtilizationPct < stats.MinLinkBusyPct-1e-9 ||
		stats.MeasuredUtilizationPct > stats.MaxLinkBusyPct+1e-9 {
		t.Fatalf("mean %v outside extremes (%v, %v)",
			stats.MeasuredUtilizationPct, stats.MinLinkBusyPct, stats.MaxLinkBusyPct)
	}
}
