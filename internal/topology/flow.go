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
