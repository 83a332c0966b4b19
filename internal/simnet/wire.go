package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"netloc/internal/mapping"
	"netloc/internal/mpi"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// maxMessages caps the messages Prepare stores, so replaying one of the
// all-to-all giants by accident fails fast instead of exhausting memory.
// It also caps the pairs, of which there are never more than messages.
const maxMessages = 4 << 20

// Pair is one distinct (source, destination) rank pair of a Wire. The
// ranks are 32-bit so a Wire of millions of messages stays compact.
type Pair struct{ Src, Dst int32 }

// Message is one non-empty wire transfer of a prepared trace.
type Message struct {
	Pair    int32 // index into Wire.Pairs
	Bytes   uint64
	Release float64 // seconds
}

// Wire is a trace prepared for replay: its wire messages, stably sorted
// by release so messages released together keep trace order, each
// naming its rank pair. It knows no topology and no mapping, so one
// Wire serves every topology, mapping and routing policy a trace is
// replayed under, and a replay routes each distinct pair once rather
// than each message. It is never modified once prepared, so one Wire
// can back any number of concurrent replays.
type Wire struct {
	// Ranks is the trace's rank count; every pair's ranks lie below it.
	Ranks int
	// Pairs are the distinct rank pairs, in order of first use.
	Pairs    []Pair
	Messages []Message
}

// Prepare is the one place a trace becomes replayable messages. It
// unrolls every event through mpi.ExpandEvent, drops zero-byte
// messages, checks both endpoints against the trace's rank count,
// interns each (source, destination) pair, and stable-sorts by release.
// A trace of more than 4 Mi messages is rejected. Errors carry no
// simulator prefix: each simulator adds its own.
func Prepare(t *trace.Trace) (*Wire, error) {
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	w := &Wire{Ranks: t.Meta.Ranks, Messages: make([]Message, 0, len(t.Events))}
	index := make(map[Pair]int32)
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
			if len(w.Messages) == maxMessages {
				return nil, fmt.Errorf("message count exceeds limit %d", maxMessages)
			}
			if uint(m.Src) >= uint(w.Ranks) || uint(m.Dst) >= uint(w.Ranks) {
				return nil, fmt.Errorf("event %d: message %d->%d leaves the trace's %d ranks", i, m.Src, m.Dst, w.Ranks)
			}
			p := Pair{int32(m.Src), int32(m.Dst)}
			pi, ok := index[p]
			if !ok {
				pi = int32(len(w.Pairs))
				index[p] = pi
				w.Pairs = append(w.Pairs, p)
			}
			w.Messages = append(w.Messages, Message{Pair: pi, Bytes: m.Bytes, Release: float64(e.Start) / 1e9})
		}
	}
	slices.SortStableFunc(w.Messages, func(a, b Message) int { return cmp.Compare(a.Release, b.Release) })
	return w, nil
}

// Place checks that mp covers the trace's ranks and fits topo, then
// calls visit with the index and the source and destination nodes of
// every pair that mp puts on two different nodes, in pair order. It
// fails when no pair crosses the network. Errors, visit's included,
// carry no simulator prefix: each simulator adds its own.
func (w *Wire) Place(topo topology.Topology, mp *mapping.Mapping, visit func(pair, src, dst int) error) error {
	if mp.Ranks() < w.Ranks {
		return fmt.Errorf("mapping covers %d ranks, trace has %d", mp.Ranks(), w.Ranks)
	}
	if mp.Nodes() > topo.Nodes() {
		return fmt.Errorf("mapping node space %d exceeds topology %s", mp.Nodes(), topo.Name())
	}
	nodeOf := mp.NodeTable()
	inter := false
	for i, p := range w.Pairs {
		src, dst := nodeOf[p.Src], nodeOf[p.Dst]
		if src == dst {
			continue
		}
		inter = true
		if err := visit(i, src, dst); err != nil {
			return err
		}
	}
	if !inter {
		return errors.New("trace has no inter-node messages")
	}
	return nil
}

// span is one routed path: arena[lo:hi]. An empty span is a pair that
// stays on one node.
type span struct{ lo, hi int32 }

// route routes every inter-node pair of w once with topology.Route:
// spans, indexed like w.Pairs, delimit each pair's path in arena.
func route(w *Wire, topo topology.Topology, mp *mapping.Mapping) (spans []span, arena []int32, err error) {
	spans = make([]span, len(w.Pairs))
	var path []int
	err = w.Place(topo, mp, func(pair, src, dst int) error {
		var err error
		if path, err = topo.Route(src, dst, path); err != nil {
			return err
		}
		if len(path) == 0 {
			return fmt.Errorf("empty route for %d->%d on %s", src, dst, topo.Name())
		}
		if len(arena)+len(path) > math.MaxInt32 {
			return fmt.Errorf("routed paths exceed %d links", math.MaxInt32)
		}
		lo := len(arena)
		for _, li := range path {
			arena = append(arena, int32(li))
		}
		spans[pair] = span{int32(lo), int32(len(arena))}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("simnet: %w", err)
	}
	return spans, arena, nil
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
