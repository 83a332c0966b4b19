package topology

import (
	"fmt"
	"math/bits"
)

// Flows hands AccumulateFlows the traffic to route, calling visit once
// per flow: the bytes, packets and messages compute node src sends
// compute node dst (src != dst). A node pair may be visited more than
// once; its flows add up. Families that route one key for many flows
// (the torus one tree per source node, the switch families one path per
// pair of switches) sum the flows that arrive in a row from one source,
// so visiting flows grouped by source, in ascending node order, walks
// each key the fewest times. Any order gives the same load.
type Flows func(visit func(src, dst int, bytes, packets, messages uint64))

// FlowLoad totals the hops of routed flows.
type FlowLoad struct {
	// PacketHops is Σ packets·hops and ByteHops Σ bytes·hops over flows.
	PacketHops, ByteHops uint64
	// GlobalMessages counts the messages whose route crosses a
	// ClassGlobal link.
	GlobalMessages uint64
}

// add charges flows whose routes are h links long.
func (l *FlowLoad) add(bytes, packets, messages, h uint64, global bool) {
	l.PacketHops += packets * h
	l.ByteHops += bytes * h
	if global {
		l.GlobalMessages += messages
	}
}

// checkLinkBytes validates AccumulateFlows' link counters.
func checkLinkBytes(t Topology, linkBytes []uint64) error {
	if linkBytes != nil && len(linkBytes) != len(t.Links()) {
		return fmt.Errorf("topology: %s has %d links, got %d link counters",
			t.Name(), len(t.Links()), len(linkBytes))
	}
	return nil
}

// flowSum is the traffic summed under one routing key.
type flowSum struct {
	bytes, packets, messages uint64
}

func (s *flowSum) add(bytes, packets, messages uint64) {
	s.bytes += bytes
	s.packets += packets
	s.messages += messages
}

// divider divides node and switch indices by a fixed divisor with one
// multiplication: for n, d < 2^32, ⌊n/d⌋ = ⌊n·⌈2^64/d⌉ / 2^64⌋ (Lemire,
// Kaser and Kurz, "Faster remainder by direct computation", 2019). The
// flow loops divide once or twice per flow, where a hardware division
// costs more than the rest of the flow's work.
type divider uint64 // ⌈2^64/d⌉; 0 for d == 1, whose ⌈2^64/d⌉ does not fit

func newDivider(d int) divider { return divider(^uint64(0)/uint64(d) + 1) }

// div returns ⌊n/d⌋ for 0 ≤ n < 2^32.
func (q divider) div(n int) int {
	if q == 0 {
		return n
	}
	hi, _ := bits.Mul64(uint64(q), uint64(n))
	return int(hi)
}

// switchRouter is implemented by the families switchFlows serves.
type switchRouter interface {
	// switchPath appends the switch-to-switch links of the route from
	// switch ss to switch ds (none when ss == ds).
	switchPath(ss, ds int, buf []int) ([]int, error)
}

// switchFlows is AccumulateFlows for the families whose route from node
// src to node dst is src's terminal link, a switch path that depends only
// on the switch pair (src/perSwitch, dst/perSwitch), and dst's terminal
// link: the dragonfly, Slim Fly, Jellyfish and HyperX. The flows of one
// source switch are summed per destination switch and each of those
// paths is walked once; terminal links are charged per flow.
type switchFlows struct {
	router    switchRouter
	classes   []LinkClass
	termLink  []int
	perSwitch divider
	links     []uint64
	load      FlowLoad

	sums     []flowSum // per destination switch, for the current source switch
	srcBytes uint64    // bytes lastSrc has sent, not yet on its terminal link
	buf      []int
	bufArr   [8]int // buf's first backing array: paths are a few links long
	lastSrc  int    // last source node, so a run of one source divides once
	src      int    // current source switch, -1 before the first flow
	err      error
}

func accumulateSwitched(r switchRouter, switches, perSwitch int, termLink []int, classes []LinkClass,
	flows Flows, linkBytes []uint64) (FlowLoad, error) {
	a := &switchFlows{
		router: r, classes: classes, termLink: termLink, perSwitch: newDivider(perSwitch),
		links: linkBytes, sums: make([]flowSum, switches), lastSrc: -1, src: -1,
	}
	a.buf = a.bufArr[:0]
	flows(a.visit)
	a.flushSource()
	a.routeSums()
	return a.load, a.err
}

func (a *switchFlows) visit(src, dst int, bytes, packets, messages uint64) {
	if src != a.lastSrc {
		a.flushSource()
		a.lastSrc = src
		if ss := a.perSwitch.div(src); ss != a.src {
			a.routeSums()
			a.src = ss
		}
	}
	a.sums[a.perSwitch.div(dst)].add(bytes, packets, messages)
	a.srcBytes += bytes
	if a.links != nil {
		a.links[a.termLink[dst]] += bytes
	}
}

// flushSource charges the last source's bytes to its terminal link.
func (a *switchFlows) flushSource() {
	if a.links != nil && a.lastSrc >= 0 {
		a.links[a.termLink[a.lastSrc]] += a.srcBytes
	}
	a.srcBytes = 0
}

// routeSums routes the current source switch's sums, one path per
// destination switch, and clears them.
func (a *switchFlows) routeSums() {
	if a.src < 0 || a.err != nil {
		return
	}
	for ds := range a.sums {
		s := &a.sums[ds]
		if *s == (flowSum{}) {
			continue
		}
		if a.buf, a.err = a.router.switchPath(a.src, ds, a.buf[:0]); a.err != nil {
			return
		}
		global := chargePath(a.buf, s.bytes, a.links, a.classes)
		a.load.add(s.bytes, s.packets, s.messages, uint64(len(a.buf)+2), global)
		*s = flowSum{}
	}
}

// routedFlows is AccumulateFlows by one Route walk per flow, for routing
// that depends on the node pair itself (Valiant's hashed pivot).
type routedFlows struct {
	t       Topology
	classes []LinkClass
	links   []uint64
	load    FlowLoad
	buf     []int
	err     error
}

func accumulateRoutes(t Topology, flows Flows, linkBytes []uint64) (FlowLoad, error) {
	a := &routedFlows{t: t, classes: t.LinkClasses(), links: linkBytes}
	flows(a.visit)
	return a.load, a.err
}

func (a *routedFlows) visit(src, dst int, bytes, packets, messages uint64) {
	if a.err != nil {
		return
	}
	if a.buf, a.err = a.t.Route(src, dst, a.buf); a.err != nil {
		return
	}
	global := chargePath(a.buf, bytes, a.links, a.classes)
	a.load.add(bytes, packets, messages, uint64(len(a.buf)), global)
}

// chargePath adds bytes onto every link of path, when links are counted,
// and reports whether the path crosses a global link.
func chargePath(path []int, bytes uint64, links []uint64, classes []LinkClass) (global bool) {
	for _, li := range path {
		if links != nil {
			links[li] += bytes
		}
		global = global || classes[li] == ClassGlobal
	}
	return global
}
