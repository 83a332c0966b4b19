package congest

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netloc/internal/simnet"
)

// Invariant (zero contention): a lone message's latency and the
// makespan must match the analytic cut-through formula exactly —
// (hops-1) head latencies plus serialization.
func TestZeroContentionMatchesAnalyticBaseline(t *testing.T) {
	topo := torus(t, 2, 2, 2)
	mp := consecutive(t, 8, 8)
	const bw = 1e9
	const bytes = 100_000
	// Rank 0 -> rank 3 on a 2x2x2 torus: two hops.
	tr := sendTrace(8, []send{{src: 0, dst: 3, bytes: bytes, start: 0}})
	stats, err := Simulate(tr, topo, mp, Options{Options: simnet.Options{BandwidthBytesPerSec: bw, PacketBytes: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	hops := topo.HopCount(0, 3)
	want := float64(hops-1)*4096/bw + bytes/bw
	if math.Abs(stats.MeanLatency-want) > 1e-12 {
		t.Errorf("lone message latency = %.12g, want analytic %.12g", stats.MeanLatency, want)
	}
	if math.Abs(stats.Makespan-want) > 1e-12 {
		t.Errorf("makespan = %.12g, want analytic %.12g", stats.Makespan, want)
	}
	if stats.DelayedShare != 0 || stats.MeanQueueDelay != 0 || stats.MaxQueueDepth != 0 {
		t.Errorf("zero-contention run reports queueing: %+v", stats)
	}
	if stats.HopsTraversed != uint64(hops) {
		t.Errorf("hops traversed = %d, want %d", stats.HopsTraversed, hops)
	}
}

// Invariant (disjoint paths): messages that share no link must show
// zero queueing even when released at the same instant.
func TestDisjointPathsZeroQueueing(t *testing.T) {
	topo := torus(t, 2, 2, 2)
	mp := consecutive(t, 8, 8)
	// 0->1 and 6->7 are single-hop transfers on opposite torus edges.
	tr := sendTrace(8, []send{
		{src: 0, dst: 1, bytes: 1 << 20, start: 0},
		{src: 6, dst: 7, bytes: 1 << 20, start: 0},
	})
	stats, err := Simulate(tr, topo, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", stats.Messages)
	}
	if stats.DelayedShare != 0 {
		t.Errorf("disjoint traffic delayed share = %g, want 0", stats.DelayedShare)
	}
	if stats.MaxQueueDepth != 0 {
		t.Errorf("disjoint traffic max queue depth = %d, want 0", stats.MaxQueueDepth)
	}
	if stats.MeanQueueDelay != 0 {
		t.Errorf("disjoint traffic queue delay = %g, want 0", stats.MeanQueueDelay)
	}
}

// Invariant (incast): when everyone floods one destination, the links
// converging on it must be visibly hotter than the median link, the
// queue must be non-empty, and the hotspot must persist.
func TestIncastSkewsLinkBusyDistribution(t *testing.T) {
	topo := fattree(t, 64)
	mp := consecutive(t, 64, topo.Nodes())
	var sends []send
	for r := 1; r < 64; r++ {
		sends = append(sends, send{src: r, dst: 0, bytes: 1 << 20, start: 0})
	}
	stats, err := Simulate(sendTrace(64, sends), topo, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.P99LinkBusyPct <= stats.P50LinkBusyPct {
		t.Errorf("incast: p99 link busy %.2f%% not above p50 %.2f%%",
			stats.P99LinkBusyPct, stats.P50LinkBusyPct)
	}
	if stats.MaxQueueDepth == 0 {
		t.Error("incast: no queue build-up observed")
	}
	if stats.DelayedShare == 0 {
		t.Error("incast: no message reported delayed")
	}
	if stats.HotspotPersistence < 0.5 {
		t.Errorf("incast: hotspot persistence = %.2f, want a stable hotspot (>= 0.5)",
			stats.HotspotPersistence)
	}
}

// The same simulation must produce identical Stats on every run and
// from concurrent goroutines (ci.sh re-runs this under -race with
// forced worker counts).
func TestSimulateDeterministicConcurrent(t *testing.T) {
	tr := genTrace(t, "LULESH", 64)
	topo := dragonfly(t, 64)
	mp := consecutive(t, 64, topo.Nodes())
	for _, policy := range Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			ref, err := Simulate(tr, topo, mp, Options{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			got := make([]*Stats, 4)
			errs := make([]error, 4)
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = Simulate(tr, topo, mp, Options{Policy: policy})
				}(i)
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(ref, got[i]) {
					t.Fatalf("run %d diverged:\n%+v\nwant\n%+v", i, got[i], ref)
				}
			}
		})
	}
}

// Every policy keeps per-link accounting consistent: the busiest link's
// share tops the distribution and detours only appear where they can.
func TestPolicyStatsConsistency(t *testing.T) {
	tr := genTrace(t, "CESAR MOCFE", 64)
	topo := dragonfly(t, 64)
	mp := consecutive(t, 64, topo.Nodes())
	minimal, err := Simulate(tr, topo, mp, Options{Policy: PolicyMinimal})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range Policies() {
		stats, err := Simulate(tr, topo, mp, Options{Policy: policy})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if stats.Policy != policy {
			t.Errorf("%s: stats carry policy %q", policy, stats.Policy)
		}
		if stats.MaxLinkBusyPct < stats.P99LinkBusyPct || stats.P99LinkBusyPct < stats.P50LinkBusyPct {
			t.Errorf("%s: busy distribution out of order: p50 %.3f p99 %.3f max %.3f",
				policy, stats.P50LinkBusyPct, stats.P99LinkBusyPct, stats.MaxLinkBusyPct)
		}
		if stats.HotspotPersistence < 0 || stats.HotspotPersistence > 1 {
			t.Errorf("%s: hotspot persistence %g outside [0,1]", policy, stats.HotspotPersistence)
		}
		switch policy {
		case PolicyMinimal, PolicyECMP:
			if stats.DetourShare != 0 {
				t.Errorf("%s: detour share %g, want 0", policy, stats.DetourShare)
			}
			if policy == PolicyECMP && stats.AvgHops != minimal.AvgHops {
				// ECMP paths are shortest by construction; only the
				// spreading differs.
				t.Errorf("ecmp avg hops %g != minimal %g", stats.AvgHops, minimal.AvgHops)
			}
		case PolicyValiant:
			if stats.AvgHops < minimal.AvgHops {
				t.Errorf("valiant avg hops %g below minimal %g", stats.AvgHops, minimal.AvgHops)
			}
			if stats.DetourShare == 0 {
				t.Error("valiant never detoured inter-group traffic")
			}
		}
	}
}

// Options validation is shared with simnet and lists every problem.
// Trace and mapping errors are checked for both simulators in simnet's
// TestSimulateValidation.
func TestSimulateOptionValidation(t *testing.T) {
	tr := sendTrace(8, []send{{src: 0, dst: 1, bytes: 100, start: 0}})
	topo := torus(t, 2, 2, 2)
	mp := consecutive(t, 8, 8)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"unknown policy", Options{Policy: "psychic"}, "unknown policy"},
		{"negative bandwidth", Options{Options: simnet.Options{BandwidthBytesPerSec: -1}}, "bandwidth"},
		{"negative packets", Options{Options: simnet.Options{PacketBytes: -1}}, "packet size"},
		{"negative extra latency", Options{ExtraHopLatency: -1e-9}, "extra hop latency"},
		{"NaN extra latency", Options{ExtraHopLatency: math.NaN()}, "extra hop latency"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Simulate(tr, topo, mp, c.opts)
			if err == nil {
				t.Fatalf("options %+v accepted", c.opts)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	// Several problems surface in one listing.
	_, err := Simulate(tr, topo, mp, Options{Policy: "psychic", ExtraHopLatency: -1})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") || !strings.Contains(err.Error(), "extra hop latency") {
		t.Errorf("combined error = %v, want both problems listed", err)
	}
}

// ExtraHopLatency stretches every link traversal: latency grows by
// exactly hops * extra in an uncontended run.
func TestExtraHopLatencyShiftsLatency(t *testing.T) {
	topo := torus(t, 2, 2, 2)
	mp := consecutive(t, 8, 8)
	tr := sendTrace(8, []send{{src: 0, dst: 3, bytes: 4096, start: 0}})
	base, err := Simulate(tr, topo, mp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5e-6
	probed, err := Simulate(tr, topo, mp, Options{ExtraHopLatency: extra})
	if err != nil {
		t.Fatal(err)
	}
	hops := float64(topo.HopCount(0, 3))
	want := base.MeanLatency + hops*extra
	if math.Abs(probed.MeanLatency-want) > 1e-12 {
		t.Errorf("latency with extra = %.12g, want %.12g", probed.MeanLatency, want)
	}
}

// Invariant (tie-break): events at the same instant resolve in message
// order, whether the later message is in flight or not yet injected.
// Message 0's second hop and message 1's injection both request link
// 1-2 of a ring at exactly 1 ns, so message 0 crosses first and only
// message 1 waits, for message 0's 1 ns serialization (not the other way
// round, for 1.024 µs).
func TestEventTieGoesToEarlierMessage(t *testing.T) {
	topo := torus(t, 4, 1, 1)
	mp := consecutive(t, 4, 4)
	// 4096 B per packet at 4.096e12 B/s: head latency and message 0's
	// serialization are both exactly the double nearest 1 ns, as is
	// message 1's release.
	opts := Options{Options: simnet.Options{BandwidthBytesPerSec: 4.096e12, PacketBytes: 4096}}
	tr := sendTrace(4, []send{
		{src: 0, dst: 2, bytes: 4096, start: 0},
		{src: 1, dst: 2, bytes: 4 << 20, start: 1},
	})
	stats, err := Simulate(tr, topo, mp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DelayedShare != 0.5 {
		t.Fatalf("delayed share = %g, want one of two messages", stats.DelayedShare)
	}
	if want := 0.5e-9; math.Abs(stats.MeanQueueDelay-want) > 1e-15 {
		t.Errorf("mean queue delay = %.6g s, want %.6g s: message 1 must wait behind message 0", stats.MeanQueueDelay, want)
	}
}
