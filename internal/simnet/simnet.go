// Package simnet adds the temporal dimension the paper's static model
// deliberately omits and names as future work ("it seems very promising
// to address dynamic effects"): a flow-level network simulator that
// replays a trace's messages over a topology with finite link bandwidth,
// FIFO link arbitration, and cut-through pipelining.
//
// The model is intentionally light — one reservation per (message, link),
// no adaptive routing, no flow control credits — but it captures the two
// dynamic effects the static analysis cannot: queueing when messages
// contend for a link, and the resulting spread between ideal and observed
// latency. Comparing its measured utilization against the static model's
// upper-bound utilization quantifies how pessimistic or optimistic the
// static view is for a given workload.
//
// A trace is prepared once into a Wire (Prepare), which knows no
// topology or mapping. Each replay routes every rank pair the mapping
// puts on two nodes once, then walks the messages in release order:
// Wire.Simulate reports full Stats, Wire.Load only what the links
// measure, for callers such as the design search that replay one Wire
// per candidate.
package simnet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// Options configures a simulation.
type Options struct {
	// BandwidthBytesPerSec is the per-link bandwidth (default 12 GB/s,
	// the paper's assumption).
	BandwidthBytesPerSec float64
	// PacketBytes sets the cut-through head latency per hop: the time to
	// serialize one packet (default 4096, the paper's packet size).
	PacketBytes int
}

// Normalize fills in defaults (a zero value means "use the default")
// and validates the result. Non-positive or non-finite bandwidth and
// negative packet sizes would produce nonsense simulations (negative
// latencies, divide-by-zero serialization times), so every such problem
// is rejected in one listing-style error. internal/congest embeds
// Options, so both simulators share these defaults and this validation.
func (o Options) Normalize() (Options, error) {
	if o.BandwidthBytesPerSec == 0 {
		o.BandwidthBytesPerSec = 12e9
	}
	if o.PacketBytes == 0 {
		o.PacketBytes = comm.DefaultPacketSize
	}
	var probs []string
	// !(x > 0) also catches NaN, which compares false to everything.
	if !(o.BandwidthBytesPerSec > 0) || math.IsInf(o.BandwidthBytesPerSec, 1) {
		probs = append(probs, fmt.Sprintf("bandwidth %g B/s (need a positive, finite rate)", o.BandwidthBytesPerSec))
	}
	if o.PacketBytes < 0 {
		probs = append(probs, fmt.Sprintf("packet size %d B (need > 0)", o.PacketBytes))
	}
	if len(probs) > 0 {
		return o, fmt.Errorf("simnet: invalid options: %s", strings.Join(probs, "; "))
	}
	return o, nil
}

// Stats summarizes a simulation run.
type Stats struct {
	// Messages simulated (after collective expansion).
	Messages int
	// Latency of messages in seconds: release to last-byte arrival.
	MeanLatency   float64
	MedianLatency float64
	P99Latency    float64
	MaxLatency    float64
	// MeanIdealLatency is the mean zero-contention latency; the
	// difference to MeanLatency is pure queueing.
	MeanIdealLatency float64
	// MeanQueueDelay = MeanLatency - MeanIdealLatency.
	MeanQueueDelay float64
	// DelayedShare is the fraction of messages that waited at any link.
	DelayedShare float64
	// Makespan is the time from the first release to the last arrival.
	Makespan float64

	// Slackness (the paper's discussion: "how much leeway a message has
	// before the corresponding receive becomes blocking"): the gap
	// between a message's arrival and the receiving rank's next own
	// network activity, which is the model's proxy for when the data is
	// needed. Messages whose receiver never acts again are excluded.
	SlackSamples int
	MeanSlack    float64
	MedianSlack  float64
	// SlackCoverShare is the fraction of slack samples whose slack is at
	// least the message's own serialization time — those messages could
	// have been sent over a link at half bandwidth without delaying the
	// receiver, the paper's energy argument.
	SlackCoverShare float64
	// MeasuredUtilizationPct is the mean busy share of links that
	// carried traffic, measured over the makespan — the dynamic
	// counterpart of the paper's eq. 5.
	MeasuredUtilizationPct float64
	// MaxLinkBusyPct and MinLinkBusyPct are the busy shares of the
	// hottest and coolest links that carried any traffic — the
	// channel-occupancy extremes around MeasuredUtilizationPct's mean.
	MaxLinkBusyPct float64
	MinLinkBusyPct float64
	// UsedLinks is the number of links that carried traffic.
	UsedLinks int
	// HopsTraversed is the total number of link traversals across all
	// simulated messages (the dynamic counterpart of eq. 3's packet
	// hops, counted per message rather than per packet).
	HopsTraversed uint64
}

// Simulate replays the trace's wire messages over the topology: Prepare
// followed by Wire.Simulate.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	w, err := Prepare(t)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	return w.Simulate(topo, mp, opts)
}

// Simulate replays w over the topology under mp and reports every Stats
// field.
func (w *Wire) Simulate(topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	// Per-rank release timelines for the slackness analysis: the sorted
	// release times of each rank's own messages, on-node ones included.
	t := &tally{
		latencies:      make([]float64, 0, len(w.Messages)),
		releasesByRank: make([][]float64, w.Ranks),
	}
	for _, m := range w.Messages {
		src := w.Pairs[m.Pair].Src
		t.releasesByRank[src] = append(t.releasesByRank[src], m.Release)
	}
	stats, err := w.replay(topo, mp, opts, t)
	if err != nil {
		return nil, err
	}
	latencies := t.latencies
	stats.HopsTraversed = t.hops
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	stats.MeanLatency = sum / float64(len(latencies))
	stats.MedianLatency = latencies[len(latencies)/2]
	stats.P99Latency = Quantile(latencies, 0.99)
	stats.MaxLatency = latencies[len(latencies)-1]
	stats.MeanIdealLatency = t.idealSum / float64(len(latencies))
	stats.MeanQueueDelay = stats.MeanLatency - stats.MeanIdealLatency
	if stats.MeanQueueDelay < 0 {
		stats.MeanQueueDelay = 0 // float accumulation noise when nothing queued
	}
	stats.DelayedShare = float64(t.delayed) / float64(len(latencies))
	if slacks := t.slacks; len(slacks) > 0 {
		stats.SlackSamples = len(slacks)
		sort.Float64s(slacks)
		var sum float64
		for _, s := range slacks {
			sum += s
		}
		stats.MeanSlack = sum / float64(len(slacks))
		stats.MedianSlack = slacks[len(slacks)/2]
		stats.SlackCoverShare = float64(t.slackCovered) / float64(len(slacks))
	}
	return stats, nil
}

// Load replays w over the topology under mp without per-message
// bookkeeping. The Stats it returns fill only what the links measure:
// Messages, Makespan, UsedLinks, MeasuredUtilizationPct and the link
// busy extremes, each equal to Simulate's. Latency, slack and hop
// fields stay zero.
func (w *Wire) Load(topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	return w.replay(topo, mp, opts, nil)
}

// tally is the per-message bookkeeping Simulate keeps and Load skips.
type tally struct {
	latencies      []float64 // in release order
	idealSum       float64
	delayed        int
	hops           uint64
	releasesByRank [][]float64
	slacks         []float64
	slackCovered   int
}

// replay routes every inter-node pair of w once, then replays every
// inter-node message in release order, reserving each link of its path
// greedily. It returns Stats with Messages, Makespan and the link fields
// set; t, when not nil, collects what Simulate reports beyond them.
func (w *Wire) replay(topo topology.Topology, mp *mapping.Mapping, opts Options, t *tally) (*Stats, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	spans, arena, err := route(w, topo, mp)
	if err != nil {
		return nil, err
	}
	bw := opts.BandwidthBytesPerSec
	hopLat := float64(opts.PacketBytes) / bw // head-packet serialization per hop
	linkFree := make([]float64, len(topo.Links()))
	linkBusy := make([]float64, len(topo.Links()))
	// The makespan window opens at the first message that actually
	// enters the network: taking the first release of all would stretch
	// the window, and skew MeasuredUtilizationPct, whenever the earliest
	// releases stay on-node. Messages are sorted by release, so the
	// first inter-node one has the earliest network release.
	var firstRelease, lastArrival float64
	n := 0
	for _, m := range w.Messages {
		p := spans[m.Pair]
		if p.lo == p.hi {
			continue // intra-node: no network involvement
		}
		if n == 0 {
			firstRelease = m.Release
		}
		n++
		serial := float64(m.Bytes) / bw
		headTime := m.Release
		delayed := false
		for i, li := range arena[p.lo:p.hi] {
			if i > 0 {
				headTime += hopLat
			}
			if linkFree[li] > headTime {
				headTime = linkFree[li]
				delayed = true
			}
			linkFree[li] = headTime + serial
			linkBusy[li] += serial
		}
		arrival := headTime + serial
		if arrival > lastArrival {
			lastArrival = arrival
		}
		if t == nil {
			continue
		}
		hops := p.hi - p.lo
		t.hops += uint64(hops)
		t.latencies = append(t.latencies, arrival-m.Release)
		t.idealSum += float64(hops-1)*hopLat + serial
		if delayed {
			t.delayed++
		}
		// Slack: time until the receiver's next own release after this
		// arrival.
		if next, ok := nextReleaseAfter(t.releasesByRank[w.Pairs[m.Pair].Dst], arrival); ok {
			slack := next - arrival
			t.slacks = append(t.slacks, slack)
			if slack >= serial {
				t.slackCovered++
			}
		}
	}
	stats := &Stats{Messages: n, Makespan: lastArrival - firstRelease}
	linkStats(stats, linkBusy)
	return stats, nil
}

// linkStats fills the link-level fields from each link's busy time.
func linkStats(stats *Stats, linkBusy []float64) {
	if stats.Makespan <= 0 {
		return
	}
	var busySum, busyMax, busyMin float64
	used := 0
	for _, b := range linkBusy {
		if b > 0 {
			busySum += b
			used++
			if b > busyMax {
				busyMax = b
			}
			if busyMin == 0 || b < busyMin {
				busyMin = b
			}
		}
	}
	stats.UsedLinks = used
	if used > 0 {
		stats.MeasuredUtilizationPct = ClampPct(100 * busySum / (stats.Makespan * float64(used)))
		stats.MinLinkBusyPct = ClampPct(100 * busyMin / stats.Makespan)
	}
	stats.MaxLinkBusyPct = ClampPct(100 * busyMax / stats.Makespan)
}

// nextReleaseAfter returns the smallest release time strictly after t in
// the sorted timeline.
func nextReleaseAfter(timeline []float64, t float64) (float64, bool) {
	lo, hi := 0, len(timeline)
	for lo < hi {
		mid := (lo + hi) / 2
		if timeline[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(timeline) {
		return 0, false
	}
	return timeline[lo], true
}
