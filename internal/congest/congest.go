// Package congest is the temporal counterpart of internal/simnet: an
// event-driven network simulator that replays the prepared simnet.Wire
// both simulators share through per-link FIFO contention queues under
// a bandwidth-delay service model. Where simnet reserves links greedily
// in release order (a deliberate simplification), congest advances a
// global event clock — a message's head requests each link of its route
// when it actually arrives there, waits behind whatever the link
// already serves, and only then moves on — so transient hotspots, queue
// build-up, and the persistence of congestion over time become
// observable.
//
// Routing is pluggable (see Policies): deterministic shortest paths for
// baseline parity with simnet, ECMP hashing over the equal-cost
// shortest-path DAG of topology.Graph, Valiant random-intermediate
// detours (the dragonfly reuses topology/valiant.go's pivot machinery),
// and a UGAL-style adaptive choice that picks minimal or Valiant per
// message from the queue backlog at decision time.
//
// Everything is deterministic: event ties break on message sequence
// numbers, hashes are seeded splitmix mixes, and no wall clock or
// random source is consulted — the same inputs always produce the same
// Stats, which is what lets the experiment grid fan out over the
// parallel engine with byte-identical results at any worker count.
package congest

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"netloc/internal/mapping"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// Routing policy names accepted by Options.Policy.
const (
	// PolicyMinimal replays every message over the topology's own
	// deterministic shortest path — the temporal baseline.
	PolicyMinimal = "minimal"
	// PolicyECMP hashes each (src, dst) flow over the equal-cost
	// shortest paths of the topology's reference graph, the way
	// flow-hashing switches spread load.
	PolicyECMP = "ecmp"
	// PolicyValiant routes every message through a deterministic
	// pseudo-random intermediate (topology/valiant.go for dragonflies,
	// a pivot node elsewhere), trading path length for load spreading.
	PolicyValiant = "valiant"
	// PolicyUGAL chooses per message between the minimal and the
	// Valiant path, whichever promises the earlier delivery given the
	// queue backlog along each at decision time (UGAL's local estimate).
	PolicyUGAL = "ugal"
)

// Policies lists the routing policies in baseline-first order.
func Policies() []string {
	return []string{PolicyMinimal, PolicyECMP, PolicyValiant, PolicyUGAL}
}

// hashSeed feeds the ECMP flow hash and the Valiant pivot hash, so runs
// are reproducible across hosts.
const hashSeed = 0x4c4c414d50 // "LLAMP"

// hotspotBuckets is the time resolution of the hotspot persistence
// analysis: the makespan is divided into this many equal windows and
// the hottest link of each window is compared against the overall
// hottest link.
const hotspotBuckets = 64

// Options configures a temporal simulation.
type Options struct {
	// Options carries the link bandwidth and packet size, with simnet's
	// defaults and validation.
	simnet.Options
	// Policy is one of Policies(); empty means PolicyMinimal.
	Policy string
	// ExtraHopLatency adds this many seconds to every link traversal's
	// head latency — the knob the LLAMP-style tolerance sweep probes.
	// Must be finite and >= 0.
	ExtraHopLatency float64
}

// normalize validates and defaults the options, listing every problem
// in one error.
func (o Options) normalize() (Options, error) {
	var probs []string
	var err error
	if o.Options, err = o.Options.Normalize(); err != nil {
		probs = append(probs, err.Error())
	}
	if o.Policy == "" {
		o.Policy = PolicyMinimal
	}
	if !knownPolicy(o.Policy) {
		probs = append(probs, fmt.Sprintf("unknown policy %q (known: %s)", o.Policy, strings.Join(Policies(), ", ")))
	}
	if !(o.ExtraHopLatency >= 0) || math.IsInf(o.ExtraHopLatency, 1) {
		probs = append(probs, fmt.Sprintf("extra hop latency %g s (need finite, >= 0)", o.ExtraHopLatency))
	}
	if len(probs) > 0 {
		return o, fmt.Errorf("congest: invalid options: %s", strings.Join(probs, "; "))
	}
	return o, nil
}

func knownPolicy(p string) bool {
	for _, k := range Policies() {
		if p == k {
			return true
		}
	}
	return false
}

// Stats summarizes one temporal simulation.
type Stats struct {
	// Policy that produced these numbers (normalized, never empty).
	Policy string
	// Messages simulated (inter-node only, after collective expansion).
	Messages int
	// Latency of messages in seconds: release to last-byte arrival.
	MeanLatency float64
	P99Latency  float64
	MaxLatency  float64
	// MeanQueueDelay is the mean time messages spent waiting behind
	// other traffic (observed minus zero-contention latency).
	MeanQueueDelay float64
	// DelayedShare is the fraction of messages that waited at any link.
	DelayedShare float64
	// Makespan is the time from the first network release to the last
	// arrival.
	Makespan float64
	// HopsTraversed counts link traversals over all messages; AvgHops
	// is the per-message mean (Valiant detours push it up).
	HopsTraversed uint64
	AvgHops       float64
	// DetourShare is the fraction of messages sent over a non-minimal
	// (Valiant) path: 0 for minimal/ecmp, 1 for valiant on inter-group
	// traffic, and UGAL's adaptive split in between.
	DetourShare float64
	// UsedLinks is the number of links that carried traffic. The busy
	// percentiles below are taken across those links over the makespan:
	// P50 is the median link's busy share, P99 the near-hottest, Max
	// the hottest.
	UsedLinks      int
	P50LinkBusyPct float64
	P99LinkBusyPct float64
	MaxLinkBusyPct float64
	// MaxQueueDepth is the largest number of messages simultaneously
	// waiting (head blocked, service not started) at any single link.
	MaxQueueDepth int
	// HottestLink is the index of the link with the most busy time.
	// HotspotPersistence is the fraction of busy time windows in which
	// that same link is also the window's busiest — 1.0 means one
	// static hotspot, values near 0 mean the hotspot moves around.
	HottestLink        int
	HotspotPersistence float64
}

// inflight is one message moving through the network.
type inflight struct {
	seq      int
	src, dst int // node vertices
	route    []int
	serial   float64
	release  float64
	hop      int
	delayed  bool
	detour   bool
}

// event is one head-of-message link request in the global clock.
type event struct {
	time float64
	seq  int // message sequence: the deterministic tie-break
	msg  *inflight
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) pushEvent(e event) { heap.Push(h, e) }

// reservation records one link occupancy interval for the hotspot pass.
type reservation struct {
	link  int32
	start float64
	dur   float64
}

// linkQueue tracks the service-start times of messages currently
// waiting at one link, so queue depth can be observed without dequeue
// events: entries whose service has started by "now" are expired lazily.
type linkQueue struct {
	starts []float64
	head   int
}

func (q *linkQueue) depthAt(now float64) int {
	for q.head < len(q.starts) && q.starts[q.head] <= now {
		q.head++
	}
	if q.head == len(q.starts) {
		q.starts = q.starts[:0]
		q.head = 0
	}
	return len(q.starts) - q.head
}

func (q *linkQueue) push(start float64) { q.starts = append(q.starts, start) }

// Simulate replays the trace's wire messages over the topology under
// the selected routing policy.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	w, err := simnet.Prepare(t, topo, mp)
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	return simulate(w, topo, opts)
}

// simulate replays a prepared Wire under normalized options.
func simulate(w *simnet.Wire, topo topology.Topology, opts Options) (*Stats, error) {
	bw := opts.BandwidthBytesPerSec
	hopLat := float64(opts.PacketBytes)/bw + opts.ExtraHopLatency

	// Only inter-node messages enter the network. Their sequence numbers
	// follow Wire (release) order so event ties resolve the way a FIFO
	// injection queue would.
	msgs := make([]inflight, 0, len(w.Messages))
	for _, m := range w.Messages {
		if m.SrcNode != m.DstNode {
			msgs = append(msgs, inflight{
				seq: len(msgs), src: int(m.SrcNode), dst: int(m.DstNode),
				serial:  float64(m.Bytes) / bw,
				release: m.Release,
			})
		}
	}

	st := &simState{
		busyUntil: make([]float64, len(topo.Links())),
		busyTime:  make([]float64, len(topo.Links())),
		queues:    make([]linkQueue, len(topo.Links())),
	}
	rt, err := newRouter(opts.Policy, topo, hashSeed, st, hopLat)
	if err != nil {
		return nil, err
	}

	events := make(eventHeap, 0, len(msgs))
	for i := range msgs {
		m := &msgs[i]
		events = append(events, event{time: m.release + opts.ExtraHopLatency, seq: m.seq, msg: m})
	}
	heap.Init(&events)

	latencies := make([]float64, 0, len(msgs))
	var idealSum float64
	var delayed, detoured int
	var hopsTraversed uint64
	firstRelease := msgs[0].release
	var lastArrival float64
	maxQueueDepth := 0

	for events.Len() > 0 {
		ev := heap.Pop(&events).(event)
		m := ev.msg
		now := ev.time
		if m.route == nil {
			// Routing decision at injection time: UGAL reads the queue
			// backlog of this exact instant.
			m.route, m.detour, err = rt.route(m.src, m.dst, m.seq, now)
			if err != nil {
				return nil, err
			}
			if len(m.route) == 0 {
				return nil, fmt.Errorf("congest: empty route for %d->%d on %s", m.src, m.dst, topo.Name())
			}
			hopsTraversed += uint64(len(m.route))
			if m.detour {
				detoured++
			}
		}
		li := m.route[m.hop]
		start := now
		if st.busyUntil[li] > start {
			start = st.busyUntil[li]
			m.delayed = true
		}
		q := &st.queues[li]
		depth := q.depthAt(now)
		if start > now {
			q.push(start)
			depth++
		}
		if depth > maxQueueDepth {
			maxQueueDepth = depth
		}
		st.busyUntil[li] = start + m.serial
		st.busyTime[li] += m.serial
		st.reservations = append(st.reservations, reservation{link: int32(li), start: start, dur: m.serial})

		if m.hop++; m.hop < len(m.route) {
			events.pushEvent(event{time: start + hopLat, seq: m.seq, msg: m})
			continue
		}
		arrival := start + m.serial
		lat := arrival - m.release
		latencies = append(latencies, lat)
		idealSum += float64(len(m.route)-1)*hopLat + opts.ExtraHopLatency + m.serial
		if m.delayed {
			delayed++
		}
		if arrival > lastArrival {
			lastArrival = arrival
		}
	}

	stats := &Stats{
		Policy:        opts.Policy,
		Messages:      len(latencies),
		HopsTraversed: hopsTraversed,
		AvgHops:       float64(hopsTraversed) / float64(len(latencies)),
		DelayedShare:  float64(delayed) / float64(len(latencies)),
		DetourShare:   float64(detoured) / float64(len(latencies)),
		MaxQueueDepth: maxQueueDepth,
		Makespan:      lastArrival - firstRelease,
	}
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	stats.MeanLatency = sum / float64(len(latencies))
	stats.P99Latency = simnet.Quantile(latencies, 0.99)
	stats.MaxLatency = latencies[len(latencies)-1]
	stats.MeanQueueDelay = stats.MeanLatency - idealSum/float64(len(latencies))
	if stats.MeanQueueDelay < 0 {
		stats.MeanQueueDelay = 0 // float accumulation noise when nothing queued
	}
	linkBusyStats(stats, st.busyTime)
	hotspotStats(stats, st, firstRelease)
	return stats, nil
}

// simState is the mutable per-run network state; it doubles as the
// linkLoad view the UGAL router consults at decision time.
type simState struct {
	busyUntil    []float64
	busyTime     []float64
	queues       []linkQueue
	reservations []reservation
}

// backlog implements linkLoad: how long a head arriving now would wait.
func (s *simState) backlog(link int, now float64) float64 {
	if b := s.busyUntil[link] - now; b > 0 {
		return b
	}
	return 0
}

// linkBusyStats fills the busy-share distribution over used links.
func linkBusyStats(stats *Stats, busyTime []float64) {
	if stats.Makespan <= 0 {
		return
	}
	var used []float64
	hottest, hottestBusy := 0, 0.0
	for li, b := range busyTime {
		if b > 0 {
			used = append(used, b)
			if b > hottestBusy {
				hottest, hottestBusy = li, b
			}
		}
	}
	stats.UsedLinks = len(used)
	stats.HottestLink = hottest
	if len(used) == 0 {
		return
	}
	sort.Float64s(used)
	stats.P50LinkBusyPct = simnet.ClampPct(100 * used[len(used)/2] / stats.Makespan)
	stats.P99LinkBusyPct = simnet.ClampPct(100 * simnet.Quantile(used, 0.99) / stats.Makespan)
	stats.MaxLinkBusyPct = simnet.ClampPct(100 * used[len(used)-1] / stats.Makespan)
}

// hotspotStats computes hotspot persistence: the makespan is divided
// into equal windows, each reservation's busy time is binned per
// (window, link), and persistence is the share of busy windows whose
// busiest link is the overall hottest one. Ties break toward the lower
// link index so the measure is deterministic.
func hotspotStats(stats *Stats, st *simState, t0 float64) {
	if stats.Makespan <= 0 || stats.UsedLinks == 0 {
		return
	}
	width := stats.Makespan / float64(hotspotBuckets)
	nLinks := len(st.busyTime)
	busy := make([]float64, hotspotBuckets*nLinks)
	for _, r := range st.reservations {
		lo := r.start - t0
		hi := lo + r.dur
		b0 := int(lo / width)
		b1 := int(hi / width)
		if b0 < 0 {
			b0 = 0
		}
		if b1 >= hotspotBuckets {
			b1 = hotspotBuckets - 1
		}
		for b := b0; b <= b1; b++ {
			ws := float64(b) * width
			we := ws + width
			s, e := lo, hi
			if s < ws {
				s = ws
			}
			if e > we {
				e = we
			}
			if e > s {
				busy[b*nLinks+int(r.link)] += e - s
			}
		}
	}
	busyWindows, hottestWins := 0, 0
	for b := 0; b < hotspotBuckets; b++ {
		row := busy[b*nLinks : (b+1)*nLinks]
		best, bestBusy := -1, 0.0
		for li, v := range row {
			if v > bestBusy {
				best, bestBusy = li, v
			}
		}
		if best < 0 {
			continue // idle window
		}
		busyWindows++
		if best == stats.HottestLink {
			hottestWins++
		}
	}
	if busyWindows > 0 {
		stats.HotspotPersistence = float64(hottestWins) / float64(busyWindows)
	}
}
