// Package netmodel implements the paper's non-temporal network model: it
// drives a communication matrix over a topology under a rank→node mapping
// and produces the system-level locality metrics of Section 4.2:
//
//	packet hops  (eq. 3): Σ over packets of the hop count of its route
//	average hops (eq. 4): packet hops / packet count
//	utilization  (eq. 5): injected volume / (BW · t_execution · #links)
//
// The model is static: no congestion, no flow interaction, full capacity
// for every message — exactly the simplification the paper argues for.
package netmodel

import (
	"fmt"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// DefaultBandwidth is the per-link bandwidth the paper assumes (12 GB/s).
const DefaultBandwidth = 12e9

// Options configures a model run.
type Options struct {
	// BandwidthBytesPerSec is the per-link bandwidth; DefaultBandwidth
	// when zero.
	BandwidthBytesPerSec float64
	// WallTime is the execution time of the traced run in seconds
	// (denominator of eq. 5). Usually taken from the trace metadata.
	WallTime float64
	// TrackLinks enables per-link traffic accounting (needed for
	// utilization, used-link counts, and the global-link share). When
	// false the same flow path runs without link counters and only the
	// hop totals are kept; it saves the counters' memory and a little
	// time, not an asymptotic factor.
	TrackLinks bool
}

// Result holds the system-level metrics of one (matrix, topology, mapping)
// combination.
type Result struct {
	Topology string
	// PacketHops is eq. 3 over all inter-node packets.
	PacketHops uint64
	// Packets is the number of inter-node packets.
	Packets uint64
	// Messages is the number of inter-node messages.
	Messages uint64
	// InterNodeBytes is the injected volume that actually crossed the
	// network; IntraNodeBytes stayed inside a node (multi-core mappings).
	InterNodeBytes uint64
	IntraNodeBytes uint64

	// AvgHops is eq. 4 (0 when no packets crossed the network).
	AvgHops float64

	// Link accounting (only populated when Options.TrackLinks).
	LinkBytes []uint64 // per-link transported bytes, parallel to topo.Links()
	UsedLinks int      // links with nonzero traffic
	// MaxLinkBytes and MinUsedLinkBytes are the occupancy extremes over
	// used links: the hottest link's volume and the coolest (nonzero)
	// link's volume. Their ratio is a cheap imbalance indicator for the
	// observability layer; both are zero when no link carried traffic.
	MaxLinkBytes     uint64
	MinUsedLinkBytes uint64
	// UtilizationPct is eq. 5 in percent, with #links = UsedLinks.
	// Check UtilizationValid before reading it: a zero value is
	// ambiguous between an idle network and an incomputable ratio.
	UtilizationPct float64
	// UtilizationValid reports whether eq. 5 was computable: link
	// tracking on, a positive wall time (the denominator), and at
	// least one used link. When false, UtilizationPct (and the
	// per-class breakdown) carry no information and renderers should
	// print "n/a", matching the paper's N/A convention.
	UtilizationValid bool
	// GlobalMsgShare is the fraction of inter-node messages whose route
	// crosses at least one global link (the dragonfly analysis of
	// Section 6.2). Zero for topologies without global links.
	GlobalMsgShare float64
	// ByteHops is Σ over messages of bytes·hops — the total link-time
	// load, useful for energy estimates.
	ByteHops uint64
	// ClassUtilizationPct breaks eq. 5 down by link class (terminal /
	// local / global, used links only). The paper's discussion builds on
	// this asymmetry: dragonfly global links run much hotter than local
	// ones, so they could be provisioned at higher bandwidth while local
	// links are scaled down. Populated only with TrackLinks.
	ClassUtilizationPct map[topology.LinkClass]float64
}

// Run evaluates the matrix on the topology under the mapping.
func Run(m *comm.Matrix, topo topology.Topology, mp *mapping.Mapping, opts Options) (*Result, error) {
	if mp.Ranks() < m.Ranks() {
		return nil, fmt.Errorf("netmodel: mapping covers %d ranks, matrix has %d", mp.Ranks(), m.Ranks())
	}
	if mp.Nodes() > topo.Nodes() {
		return nil, fmt.Errorf("netmodel: mapping node space %d exceeds topology %s (%d nodes)",
			mp.Nodes(), topo.Name(), topo.Nodes())
	}
	if opts.WallTime < 0 {
		return nil, fmt.Errorf("netmodel: negative wall time %v", opts.WallTime)
	}
	bw := opts.BandwidthBytesPerSec
	if bw == 0 {
		bw = DefaultBandwidth
	}
	if bw < 0 {
		return nil, fmt.Errorf("netmodel: negative bandwidth %v", bw)
	}

	res := &Result{Topology: topo.Name()}
	if opts.TrackLinks {
		res.LinkBytes = make([]uint64, len(topo.Links()))
	}
	// Sources go in rank order, so a consecutive mapping hands the
	// topology its flows grouped by source node and source switch. Every
	// row is read in place: a sorted row without a uniform term entry by
	// entry, and dense rows and rows with a term, which hold almost every
	// pair of the large configurations, by one merge over all
	// destinations here rather than through EachDst's callback.
	nodeOf := mp.NodeTable()
	load, err := topo.AccumulateFlows(func(visit func(src, dst int, bytes, packets, messages uint64)) {
		var inter, intra, msgs, pkts uint64
		ns := 0
		flow := func(dst int, e comm.Entry) {
			if nd := nodeOf[dst]; nd != ns {
				inter += e.Bytes
				msgs += e.Messages
				pkts += e.Packets
				visit(ns, nd, e.Bytes, e.Packets, e.Messages)
			} else {
				intra += e.Bytes
			}
		}
		for src := 0; src < m.Ranks(); src++ {
			ns = nodeOf[src]
			row := m.Row(src)
			if row.Dense == nil && row.Uniform.Messages == 0 {
				for _, e := range row.Sorted {
					flow(e.Dst, e.Entry)
				}
				continue
			}
			sorted := row.Sorted
			for dst := 0; dst < m.Ranks(); dst++ {
				var e comm.Entry
				if row.Dense != nil {
					e = row.Dense[dst]
				} else if len(sorted) > 0 && sorted[0].Dst == dst {
					e, sorted = sorted[0].Entry, sorted[1:]
				}
				if dst != src {
					e = e.Plus(row.Uniform)
				}
				if e.Messages != 0 {
					flow(dst, e)
				}
			}
		}
		res.InterNodeBytes, res.IntraNodeBytes, res.Messages, res.Packets = inter, intra, msgs, pkts
	}, res.LinkBytes)
	if err != nil {
		return nil, err
	}
	res.PacketHops, res.ByteHops = load.PacketHops, load.ByteHops

	if res.Packets > 0 {
		res.AvgHops = float64(res.PacketHops) / float64(res.Packets)
	}
	if opts.TrackLinks {
		classes := topo.LinkClasses()
		var classBytes [topology.ClassGlobal + 1]uint64
		var classUsed [topology.ClassGlobal + 1]int
		for li, b := range res.LinkBytes {
			if b > 0 {
				res.UsedLinks++
				classBytes[classes[li]] += b
				classUsed[classes[li]]++
				if b > res.MaxLinkBytes {
					res.MaxLinkBytes = b
				}
				if res.MinUsedLinkBytes == 0 || b < res.MinUsedLinkBytes {
					res.MinUsedLinkBytes = b
				}
			}
		}
		if res.Messages > 0 {
			res.GlobalMsgShare = float64(load.GlobalMessages) / float64(res.Messages)
		}
		if res.UsedLinks > 0 && opts.WallTime > 0 {
			res.UtilizationValid = true
			res.UtilizationPct = 100 * float64(res.InterNodeBytes) /
				(bw * opts.WallTime * float64(res.UsedLinks))
			used := 0
			for _, n := range classUsed {
				if n > 0 {
					used++
				}
			}
			res.ClassUtilizationPct = make(map[topology.LinkClass]float64, used)
			for class, bytes := range classBytes {
				if classUsed[class] == 0 {
					continue
				}
				// Per-class utilization is the mean busy share of that
				// class's used links.
				res.ClassUtilizationPct[topology.LinkClass(class)] = 100 * float64(bytes) /
					(bw * opts.WallTime * float64(classUsed[class]))
			}
		}
	}
	return res, nil
}

// InterNodeBytes returns the traffic volume crossing node boundaries when
// ranks are packed ranksPerNode to a node — the paper's multi-core study
// (Figure 5). The node space is sized to fit; no topology is involved
// because the metric is distance-independent.
func InterNodeBytes(m *comm.Matrix, ranksPerNode int) (inter, intra uint64, err error) {
	if ranksPerNode <= 0 {
		return 0, 0, fmt.Errorf("netmodel: non-positive ranks-per-node %d", ranksPerNode)
	}
	m.Each(func(k comm.Key, e comm.Entry) {
		if k.Src/ranksPerNode == k.Dst/ranksPerNode {
			intra += e.Bytes
		} else {
			inter += e.Bytes
		}
	})
	return inter, intra, nil
}

// MultiCoreSeries evaluates InterNodeBytes for each cores-per-node value
// and returns the inter-node volume relative to the 1-rank-per-node
// configuration (the series of Figure 5). The 1-per-node baseline equals
// the total traffic, since distinct ranks always land on distinct nodes.
func MultiCoreSeries(m *comm.Matrix, coresPerNode []int) ([]float64, error) {
	total := m.TotalBytes()
	out := make([]float64, len(coresPerNode))
	for i, c := range coresPerNode {
		inter, _, err := InterNodeBytes(m, c)
		if err != nil {
			return nil, err
		}
		if total == 0 {
			out[i] = 0
			continue
		}
		out[i] = float64(inter) / float64(total)
	}
	return out, nil
}
