package simnet

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/mpi"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// referenceSimulate is the replay by definition, as simnet ran before a
// Wire was shared across topologies and mappings: every message carries
// its nodes, walks its own Route, and keeps the full bookkeeping. Any
// stable sort by release gives the same message order.
func referenceSimulate(t *testing.T, tr *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) *Stats {
	t.Helper()
	opts, err := opts.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	world, err := mpi.World(tr.Meta.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	type message struct {
		src, dst, srcNode, dstNode int
		bytes                      uint64
		release                    float64
	}
	var msgs []message
	var buf []mpi.Message
	for _, e := range tr.Events {
		if buf, err = mpi.ExpandEvent(buf[:0], e, world, mpi.ExpandOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, m := range buf {
			if m.Bytes == 0 {
				continue
			}
			ns, err := mp.NodeOf(m.Src)
			if err != nil {
				t.Fatal(err)
			}
			nd, err := mp.NodeOf(m.Dst)
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, message{m.Src, m.Dst, ns, nd, m.Bytes, float64(e.Start) / 1e9})
		}
	}
	slices.SortStableFunc(msgs, func(a, b message) int { return cmp.Compare(a.release, b.release) })

	bw := opts.BandwidthBytesPerSec
	hopLat := float64(opts.PacketBytes) / bw
	linkFree := make([]float64, len(topo.Links()))
	linkBusy := make([]float64, len(topo.Links()))
	releasesByRank := make([][]float64, tr.Meta.Ranks)
	for _, m := range msgs {
		releasesByRank[m.src] = append(releasesByRank[m.src], m.release)
	}
	var latencies, slacks []float64
	var idealSum, firstRelease, lastArrival float64
	var delayed, slackCovered int
	var hops uint64
	haveFirst := false
	var path []int
	for _, m := range msgs {
		if m.srcNode == m.dstNode {
			continue
		}
		if !haveFirst {
			firstRelease, haveFirst = m.release, true
		}
		if path, err = topo.Route(m.srcNode, m.dstNode, path); err != nil {
			t.Fatal(err)
		}
		serial := float64(m.bytes) / bw
		idealSum += float64(len(path)-1)*hopLat + serial
		hops += uint64(len(path))
		head := m.release
		wasDelayed := false
		for i, li := range path {
			if i > 0 {
				head += hopLat
			}
			if linkFree[li] > head {
				head = linkFree[li]
				wasDelayed = true
			}
			linkFree[li] = head + serial
			linkBusy[li] += serial
		}
		arrival := head + serial
		latencies = append(latencies, arrival-m.release)
		if wasDelayed {
			delayed++
		}
		if arrival > lastArrival {
			lastArrival = arrival
		}
		if next, ok := nextReleaseAfter(releasesByRank[m.dst], arrival); ok {
			slacks = append(slacks, next-arrival)
			if next-arrival >= serial {
				slackCovered++
			}
		}
	}

	n := float64(len(latencies))
	s := &Stats{Messages: len(latencies), HopsTraversed: hops, Makespan: lastArrival - firstRelease}
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	s.MeanLatency = sum / n
	s.MedianLatency = latencies[len(latencies)/2]
	s.P99Latency = Quantile(latencies, 0.99)
	s.MaxLatency = latencies[len(latencies)-1]
	s.MeanIdealLatency = idealSum / n
	s.MeanQueueDelay = s.MeanLatency - s.MeanIdealLatency
	if s.MeanQueueDelay < 0 {
		s.MeanQueueDelay = 0
	}
	s.DelayedShare = float64(delayed) / n
	if s.Makespan > 0 {
		var busySum, busyMax, busyMin float64
		for _, b := range linkBusy {
			if b > 0 {
				busySum += b
				s.UsedLinks++
				if b > busyMax {
					busyMax = b
				}
				if busyMin == 0 || b < busyMin {
					busyMin = b
				}
			}
		}
		if s.UsedLinks > 0 {
			s.MeasuredUtilizationPct = ClampPct(100 * busySum / (s.Makespan * float64(s.UsedLinks)))
			s.MinLinkBusyPct = ClampPct(100 * busyMin / s.Makespan)
		}
		s.MaxLinkBusyPct = ClampPct(100 * busyMax / s.Makespan)
	}
	if len(slacks) > 0 {
		s.SlackSamples = len(slacks)
		sort.Float64s(slacks)
		var sum float64
		for _, v := range slacks {
			sum += v
		}
		s.MeanSlack = sum / float64(len(slacks))
		s.MedianSlack = slacks[len(slacks)/2]
		s.SlackCoverShare = float64(slackCovered) / float64(len(slacks))
	}
	return s
}

// oracleTopos sizes one topology of every family for ranks, the Valiant
// dragonfly included: its pivot hashes the node pair, so routing a pair
// once must give every message of the pair the same detour.
func oracleTopos(t *testing.T, ranks int) []topology.Topology {
	t.Helper()
	var out []topology.Topology
	for _, sized := range []func(int) (topology.Config, error){
		topology.TorusConfig,
		func(r int) (topology.Config, error) {
			cfg, err := topology.TorusConfig(r)
			cfg.Kind = "mesh"
			return cfg, err
		},
		topology.FatTreeConfig, topology.DragonflyConfig, topology.SlimFlyConfig,
		topology.JellyfishConfig, topology.HyperXConfig,
	} {
		cfg, err := sized(ranks)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, topo)
	}
	d, ok := out[3].(*topology.Dragonfly)
	if !ok {
		t.Fatalf("dragonfly config built a %T", out[3])
	}
	v, err := topology.NewValiant(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, v)
}

// TestReplayMatchesPerMessageRoutes: routing each rank pair once and
// replaying one Wire shared by every topology and mapping gives Stats
// identical, bit for bit, to the per-message walk, and the lean replay
// measures the same messages, makespan and link busy shares. BigFFT/100
// contends; blocked placement at two ranks per node keeps pairs on-node.
// Each workload prepares one Wire for all of its cases, so state one
// replay left behind would fail a later case.
func TestReplayMatchesPerMessageRoutes(t *testing.T) {
	for _, ref := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"Crystal Router", 100}, {"BigFFT", 100}} {
		tr := genTrace(t, ref.app, ref.ranks)
		w, err := Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range oracleTopos(t, ref.ranks) {
			for _, m := range []struct {
				name  string
				build func() (*mapping.Mapping, error)
			}{
				{"consecutive", func() (*mapping.Mapping, error) { return mapping.Consecutive(ref.ranks, topo.Nodes()) }},
				{"greedy", func() (*mapping.Mapping, error) { return mapping.Greedy(acc.Wire, topo) }},
				{"blocked2", func() (*mapping.Mapping, error) { return mapping.Blocked(ref.ranks, topo.Nodes(), 2) }},
			} {
				name := ref.app + " on " + topo.Name() + " under " + m.name
				mp, err := m.build()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := referenceSimulate(t, tr, topo, mp, Options{})
				got, err := w.Simulate(topo, mp, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n replay    %+v\n reference %+v", name, *got, *want)
				}
				lean, err := w.Load(topo, mp, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				full := Stats{
					Messages: got.Messages, Makespan: got.Makespan, UsedLinks: got.UsedLinks,
					MeasuredUtilizationPct: got.MeasuredUtilizationPct,
					MaxLinkBusyPct:         got.MaxLinkBusyPct, MinLinkBusyPct: got.MinLinkBusyPct,
				}
				if *lean != full {
					t.Errorf("%s: lean replay %+v, full replay's link fields %+v", name, *lean, full)
				}
			}
		}
	}
}
