package simnet

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"netloc/internal/mapping"
	"netloc/internal/mpi"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// maxMessages caps the messages Prepare stores, so replaying one of the
// all-to-all giants by accident fails fast instead of exhausting memory.
const maxMessages = 4 << 20

// Message is one non-empty wire transfer of a prepared trace. The
// endpoints are 32-bit so a Wire of millions of messages stays compact.
type Message struct {
	Src, Dst         int32 // ranks
	SrcNode, DstNode int32 // the nodes the mapping places Src and Dst on
	Bytes            uint64
	Release          float64 // seconds
}

// Wire is a trace prepared for replay: its wire messages, node-mapped
// and stably sorted by release, so messages released together keep
// trace order. Both temporal simulators replay it; it is never modified
// once built, so one Wire can back any number of concurrent replays.
type Wire struct {
	Messages []Message
}

// Prepare is the one place a trace becomes replayable messages. It
// checks that the mapping covers the trace's ranks and fits the
// topology, unrolls every event through mpi.ExpandEvent, drops
// zero-byte messages, maps both endpoints to nodes, and stable-sorts by
// release. Intra-node messages stay in the Wire (simnet's slack
// analysis reads their releases), but a trace whose messages all stay
// on-node, or that has more than 4 Mi messages, is rejected. Errors
// carry no simulator prefix: each simulator adds its own.
func Prepare(t *trace.Trace, topo topology.Topology, mp *mapping.Mapping) (*Wire, error) {
	if mp.Ranks() < t.Meta.Ranks {
		return nil, fmt.Errorf("mapping covers %d ranks, trace has %d", mp.Ranks(), t.Meta.Ranks)
	}
	if mp.Nodes() > topo.Nodes() {
		return nil, fmt.Errorf("mapping node space %d exceeds topology %s", mp.Nodes(), topo.Name())
	}
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	// Indexing the rank→node table, bounds-checked below, costs less per
	// message than two mp.NodeOf calls.
	nodeOf := mp.Table()
	msgs := make([]Message, 0, len(t.Events))
	inter := 0
	var buf []mpi.Message
	for i, e := range t.Events {
		buf, err = mpi.ExpandEvent(buf[:0], e, world, mpi.ExpandOptions{})
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		for _, m := range buf {
			if m.Bytes == 0 {
				continue
			}
			if len(msgs) == maxMessages {
				return nil, fmt.Errorf("message count exceeds limit %d", maxMessages)
			}
			if uint(m.Src) >= uint(len(nodeOf)) || uint(m.Dst) >= uint(len(nodeOf)) {
				return nil, fmt.Errorf("event %d: message %d->%d leaves the mapping's %d ranks", i, m.Src, m.Dst, len(nodeOf))
			}
			ns, nd := nodeOf[m.Src], nodeOf[m.Dst]
			if ns != nd {
				inter++
			}
			msgs = append(msgs, Message{
				Src: int32(m.Src), Dst: int32(m.Dst),
				SrcNode: int32(ns), DstNode: int32(nd),
				Bytes: m.Bytes, Release: float64(e.Start) / 1e9,
			})
		}
	}
	if inter == 0 {
		return nil, errors.New("trace has no inter-node messages")
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Release < msgs[j].Release })
	return &Wire{Messages: msgs}, nil
}

// ClampPct bounds a percentage to [0, 100]: a link's busy time never
// truly exceeds the makespan, but float accumulation can overshoot by
// ulps.
func ClampPct(v float64) float64 {
	if v > 100 {
		return 100
	}
	if v < 0 {
		return 0
	}
	return v
}

// Quantile returns the q-quantile of an ascending, non-empty slice by
// ceil rank: the smallest sample with at least a q share of the samples
// at or below it.
func Quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
