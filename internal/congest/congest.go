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
// The event core is a binary heap of (time, seq) head events that holds
// only the messages in flight; messages not yet injected are read
// through a cursor over the release-sorted Wire. Each SimulateWire or
// LatencyToleranceWire call routes every rank pair of the Wire once,
// into one flat arena of link indices, before the clock starts:
// minimal, ECMP and Valiant paths depend only on the endpoints, never
// on the clock or on link state, and UGAL keeps both of its candidate
// paths there and picks one at injection. Simulate and LatencyTolerance
// prepare the trace first; a caller replaying one trace many times
// prepares it once and passes the Wire. Tolerance probes read only the
// makespan, so they replay that arena without the per-message and
// per-link bookkeeping a full run keeps, and allocate nothing per
// message.
//
// Routing is pluggable (see Policies): deterministic shortest paths for
// baseline parity with simnet, ECMP hashing over the equal-cost
// shortest paths (distance rows from topology.Adjacency.BFS), Valiant
// random-intermediate detours (the dragonfly reuses
// topology/valiant.go's pivot machinery), and a UGAL-style adaptive
// choice that picks minimal or Valiant per message from the queue
// backlog at injection.
//
// Everything is deterministic: event ties break on message sequence
// numbers, hashes are seeded splitmix mixes, and no wall clock or
// random source is consulted — the same inputs always produce the same
// Stats, which is what lets the experiment grid fan out over the
// parallel engine with byte-identical results at any worker count.
package congest

import (
	"fmt"
	"math"
	"slices"
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
	if !slices.Contains(Policies(), o.Policy) {
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
// the selected routing policy: simnet.Prepare followed by SimulateWire.
func Simulate(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	w, err := simnet.Prepare(t)
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	return SimulateWire(w, topo, mp, opts)
}

// SimulateWire replays a prepared Wire over the topology under mp and
// the selected routing policy.
func SimulateWire(w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Stats, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	r, err := newReplay(w, topo, mp, opts)
	if err != nil {
		return nil, err
	}
	return r.stats(opts.ExtraHopLatency), nil
}

// span is one routed path: replay.arena[lo:hi].
type span struct{ lo, hi int32 }

// message is one inter-node message, routed.
type message struct {
	release, serial float64
	// path is the policy's path, UGAL's minimal candidate.
	path span
	// alt is UGAL's Valiant candidate; empty under the other policies
	// and when it is the minimal path itself.
	alt span
	// detour reports that path is non-minimal (the Valiant policy).
	detour bool
}

// replay is one Wire routed under one policy on one topology: what every
// run needs and no run changes, plus the buffers runs reuse. Any number
// of runs, at any extra hop latency, replay the same arena. A replay is
// not safe for concurrent use; each SimulateWire or LatencyToleranceWire
// call builds its own.
type replay struct {
	policy    string
	packetLat float64   // head latency per hop: PacketBytes / bandwidth
	msgs      []message // inter-node messages in Wire order; index = seq
	arena     []int32   // every pair's routed paths, back to back
	// traversals bounds the link traversals of one run: the longer of
	// each message's candidate paths, summed.
	traversals int
	// Reused by every run.
	busyUntil []float64 // per link: when its current service ends
	queue     eventQueue
}

// newReplay routes every inter-node pair of w once under the options'
// policy: paths depend only on the endpoints, so every message of a
// pair shares its pair's spans. Sequence numbers follow Wire (release)
// order, so event ties resolve the way a FIFO injection queue would.
func newReplay(w *simnet.Wire, topo topology.Topology, mp *mapping.Mapping, opts Options) (*replay, error) {
	ugal := opts.Policy == PolicyUGAL
	policy := opts.Policy
	if ugal {
		policy = PolicyMinimal
	}
	rt, err := newRouter(policy, topo, hashSeed)
	if err != nil {
		return nil, err
	}
	var val router
	if ugal {
		if val, err = newRouter(PolicyValiant, topo, hashSeed); err != nil {
			return nil, err
		}
	}
	bw := opts.BandwidthBytesPerSec
	r := &replay{
		policy:    opts.Policy,
		packetLat: float64(opts.PacketBytes) / bw,
		msgs:      make([]message, 0, len(w.Messages)),
		busyUntil: make([]float64, len(topo.Links())),
	}
	// Each pair's routes, as the template of its messages; an on-node
	// pair keeps an empty path.
	pairs := make([]message, len(w.Pairs))
	var path, alt []int
	err = w.Place(topo, mp, func(pair, src, dst int) error {
		m := &pairs[pair]
		var err error
		if path, m.detour, err = rt.route(src, dst, path); err != nil {
			return err
		}
		if ugal {
			if alt, _, err = val.route(src, dst, alt); err != nil {
				return err
			}
		}
		if len(path) == 0 || ugal && len(alt) == 0 {
			return fmt.Errorf("empty route for %d->%d on %s", src, dst, topo.Name())
		}
		if len(r.arena)+len(path)+len(alt) > math.MaxInt32 {
			return fmt.Errorf("routed paths exceed %d links", math.MaxInt32)
		}
		m.path = r.add(path)
		// The Valiant alternative can share the minimal path's length
		// yet use different links, so it stays a candidate whenever the
		// paths differ.
		if ugal && !slices.Equal(path, alt) {
			m.alt = r.add(alt)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	for _, wm := range w.Messages {
		m := pairs[wm.Pair]
		if m.path.hi == m.path.lo {
			continue // intra-node: no network involvement
		}
		m.release, m.serial = wm.Release, float64(wm.Bytes)/bw
		r.msgs = append(r.msgs, m)
		r.traversals += int(max(m.path.hi-m.path.lo, m.alt.hi-m.alt.lo))
	}
	return r, nil
}

// add appends a path to the arena.
func (r *replay) add(path []int) span {
	lo := len(r.arena)
	for _, li := range path {
		r.arena = append(r.arena, int32(li))
	}
	return span{int32(lo), int32(len(r.arena))}
}

// event is a message's head requesting its next link at time. A message
// in flight has exactly one pending event, so the event carries all of
// its state.
type event struct {
	time      float64
	seq       int32 // index into replay.msgs: the deterministic tie-break
	next, end int32 // the links still to cross: arena[next:end]
	delayed   bool  // the message has waited at some link
}

// before orders events by (time, seq): seq is unique among pending
// events, so the order is total and the pop sequence does not depend on
// the heap's shape.
func (e event) before(o event) bool {
	return e.time < o.time || e.time == o.time && e.seq < o.seq
}

// eventQueue is a binary min-heap of events under before.
type eventQueue []event

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes the earliest event.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	q.down()
}

// down restores heap order after the earliest event was replaced.
func (q eventQueue) down() {
	n := len(q)
	if n == 0 {
		return
	}
	e := q[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// tally is the bookkeeping a full run keeps for Stats and a makespan
// probe skips.
type tally struct {
	busyTime      []float64
	queues        []linkQueue
	reservations  []reservation
	latencies     []float64 // in arrival order
	idealSum      float64
	delayed       int
	detoured      int
	hops          uint64
	maxQueueDepth int
}

// occupy records that a head arriving at link li at time now is served
// from start for dur seconds.
func (t *tally) occupy(li int32, now, start, dur float64) {
	q := &t.queues[li]
	depth := q.depthAt(now)
	if start > now {
		q.push(start)
		depth++
	}
	if depth > t.maxQueueDepth {
		t.maxQueueDepth = depth
	}
	t.busyTime[li] += dur
	t.reservations = append(t.reservations, reservation{link: li, start: start, dur: dur})
}

// pathAt is the path m takes when injected at now. UGAL decides here,
// from the backlog of this exact instant: the Valiant candidate wins
// only when strictly cheaper, so ties go to minimal (hardware UGAL's
// bias).
func (r *replay) pathAt(m *message, now, hopLat float64) (p span, detour bool) {
	if m.alt.hi > m.alt.lo && r.cost(m.alt, now, hopLat) < r.cost(m.path, now, hopLat) {
		return m.alt, true
	}
	return m.path, m.detour
}

// cost is UGAL's delivery estimate for a path at time now: one head
// latency per hop plus the backlog each of its links still has to serve.
func (r *replay) cost(p span, now, hopLat float64) float64 {
	c := float64(p.hi-p.lo) * hopLat
	for _, li := range r.arena[p.lo:p.hi] {
		if b := r.busyUntil[li] - now; b > 0 {
			c += b
		}
	}
	return c
}

// run replays every message with extra seconds added to each link
// traversal and returns the last arrival. t, when not nil, collects
// what Stats reports beyond the makespan.
func (r *replay) run(extra float64, t *tally) float64 {
	hopLat := r.packetLat + extra
	msgs, arena, busyUntil := r.msgs, r.arena, r.busyUntil
	clear(busyUntil)
	q := r.queue[:0]
	var lastArrival float64
	for cursor := 0; cursor < len(msgs) || len(q) > 0; {
		// Every pending seq is below the cursor, so a time tie goes to
		// the heap: the order one heap over all messages would give.
		var e event
		pending := len(q) > 0 && (cursor == len(msgs) || q[0].time <= msgs[cursor].release+extra)
		if pending {
			e = q[0]
		} else {
			m := &msgs[cursor]
			now := m.release + extra
			p, detour := r.pathAt(m, now, hopLat)
			e = event{time: now, seq: int32(cursor), next: p.lo, end: p.hi}
			cursor++
			if t != nil {
				t.hops += uint64(e.end - e.next)
				if detour {
					t.detoured++
				}
			}
		}
		m := &msgs[e.seq]
		now := e.time
		li := arena[e.next]
		start := now
		if busyUntil[li] > start {
			start = busyUntil[li]
			e.delayed = true
		}
		busyUntil[li] = start + m.serial
		if t != nil {
			t.occupy(li, now, start, m.serial)
		}
		if e.next++; e.next < e.end {
			e.time = start + hopLat
			if pending {
				q[0] = e
				q.down()
			} else {
				q.push(e)
			}
			continue
		}
		if pending {
			q.pop()
		}
		arrival := start + m.serial
		if arrival > lastArrival {
			lastArrival = arrival
		}
		if t != nil {
			p := m.path
			if e.end != p.hi {
				p = m.alt // UGAL took the Valiant candidate
			}
			t.latencies = append(t.latencies, arrival-m.release)
			t.idealSum += float64(p.hi-p.lo-1)*hopLat + extra + m.serial
			if e.delayed {
				t.delayed++
			}
		}
	}
	r.queue = q
	return lastArrival
}

// makespan replays without bookkeeping: the tolerance probe.
func (r *replay) makespan(extra float64) float64 {
	return r.run(extra, nil) - r.msgs[0].release
}

// stats replays with full bookkeeping and summarizes the run.
func (r *replay) stats(extra float64) *Stats {
	links := len(r.busyUntil)
	t := &tally{
		busyTime:     make([]float64, links),
		queues:       make([]linkQueue, links),
		reservations: make([]reservation, 0, r.traversals),
		latencies:    make([]float64, 0, len(r.msgs)),
	}
	firstRelease := r.msgs[0].release
	lastArrival := r.run(extra, t)
	latencies := t.latencies
	n := float64(len(latencies))
	stats := &Stats{
		Policy:        r.policy,
		Messages:      len(latencies),
		HopsTraversed: t.hops,
		AvgHops:       float64(t.hops) / n,
		DelayedShare:  float64(t.delayed) / n,
		DetourShare:   float64(t.detoured) / n,
		MaxQueueDepth: t.maxQueueDepth,
		Makespan:      lastArrival - firstRelease,
	}
	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	stats.MeanLatency = sum / n
	stats.P99Latency = simnet.Quantile(latencies, 0.99)
	stats.MaxLatency = latencies[len(latencies)-1]
	stats.MeanQueueDelay = stats.MeanLatency - t.idealSum/n
	if stats.MeanQueueDelay < 0 {
		stats.MeanQueueDelay = 0 // float accumulation noise when nothing queued
	}
	linkBusyStats(stats, t.busyTime)
	hotspotStats(stats, t.busyTime, t.reservations, firstRelease)
	return stats
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
func hotspotStats(stats *Stats, busyTime []float64, reservations []reservation, t0 float64) {
	if stats.Makespan <= 0 || stats.UsedLinks == 0 {
		return
	}
	width := stats.Makespan / float64(hotspotBuckets)
	nLinks := len(busyTime)
	busy := make([]float64, hotspotBuckets*nLinks)
	for _, r := range reservations {
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
