package comm

import (
	"slices"
	"testing"

	"netloc/internal/mpi"
	"netloc/internal/trace"
)

// fuzzTrace decodes fuzz input into a valid trace of 2 to 64 ranks and at
// most 400 events. The first byte sizes the rank space; every following
// four bytes are one event: an op (sends, receives and every collective),
// a rank, a peer or root, and a payload of 0 to 992 bytes in steps of 32,
// so that vector collectives split into non-empty pieces.
func fuzzTrace(data []byte) *trace.Trace {
	if len(data) == 0 {
		return nil
	}
	ranks := 2 + int(data[0])%63
	tr := &trace.Trace{Meta: trace.Meta{App: "fuzz", Ranks: ranks, WallTime: 1}}
	for rec := data[1:]; len(rec) >= 4 && len(tr.Events) < 400; rec = rec[4:] {
		op := trace.OpSend + trace.Op(rec[0])%(trace.OpBarrier-trace.OpSend+1)
		e := trace.Event{Rank: int(rec[1]) % ranks, Op: op, Peer: -1, Root: -1, Bytes: uint64(rec[3]) * 32 % 1024}
		switch {
		case op.IsP2P():
			e.Peer = (e.Rank + 1 + int(rec[2])%(ranks-1)) % ranks
		case op == trace.OpBcast || op == trace.OpReduce || op == trace.OpGather || op == trace.OpGatherv ||
			op == trace.OpScatter || op == trace.OpScatterv:
			e.Root = int(rec[2]) % ranks
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// expandEach is the reference accumulation: every event expanded on its
// own and every message added with Add, with no coalescing and no
// uniform terms. The point-to-point matrix takes the sends' messages.
func expandEach(t *testing.T, tr *trace.Trace, strategy mpi.Strategy) (p2p, wire *Matrix) {
	t.Helper()
	world, err := mpi.World(tr.Meta.Ranks)
	if err != nil {
		t.Fatal(err)
	}
	pb, wb := mustBuilder(t, tr.Meta.Ranks, 0), mustBuilder(t, tr.Meta.Ranks, 0)
	for _, e := range tr.Events {
		msgs, err := mpi.ExpandEvent(nil, e, world, mpi.ExpandOptions{Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range msgs {
			if err := wb.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
				t.Fatal(err)
			}
			if e.Op == trace.OpSend {
				if err := pb.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return pb.Matrix(), wb.Matrix()
}

// readRow reads a row view on its own, apart from EachDst: the row's own
// entries plus its uniform term, for every destination with traffic, in
// ascending order. It fails unless the view is one layout: a dense slice
// over every rank, or entries in strictly ascending destination order,
// none for the source.
func readRow(t *testing.T, what string, row RowView, src, ranks int) []DstEntry {
	t.Helper()
	own := make([]Entry, ranks)
	switch {
	case row.Dense != nil && (len(row.Dense) != ranks || len(row.Sorted) > 0):
		t.Fatalf("%s: Row(%d) holds %d dense and %d sorted entries", what, src, len(row.Dense), len(row.Sorted))
	case row.Dense != nil:
		copy(own, row.Dense)
	}
	for i, e := range row.Sorted {
		if e.Dst == src || e.Messages == 0 || (i > 0 && e.Dst <= row.Sorted[i-1].Dst) {
			t.Fatalf("%s: Row(%d) sorted entries %v", what, src, row.Sorted)
		}
		own[e.Dst] = e.Entry
	}
	var out []DstEntry
	for dst, e := range own {
		if dst != src {
			e = e.Plus(row.Uniform)
		}
		if e.Messages != 0 {
			out = append(out, DstEntry{Dst: dst, Entry: e})
		}
	}
	return out
}

// sameMatrix fails unless every reader of got reports what it reports
// for want: the totals, Pairs, Lookup of every pair, Each, and per row
// EachDst and AppendBySource. Every row's EachDst must come in ascending
// destination order and agree with what Row reads in place.
func sameMatrix(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Pairs() != want.Pairs() || got.TotalBytes() != want.TotalBytes() ||
		got.TotalMessages() != want.TotalMessages() || got.TotalPackets() != want.TotalPackets() {
		t.Fatalf("%s: pairs %d, totals %d B / %d messages / %d packets; want %d, %d / %d / %d", what,
			got.Pairs(), got.TotalBytes(), got.TotalMessages(), got.TotalPackets(),
			want.Pairs(), want.TotalBytes(), want.TotalMessages(), want.TotalPackets())
	}
	ranks := want.Ranks()
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if g, w := got.Lookup(src, dst), want.Lookup(src, dst); g != w {
				t.Fatalf("%s: Lookup(%d,%d) = %+v, want %+v", what, src, dst, g, w)
			}
		}
	}
	each := map[Key]Entry{}
	got.Each(func(k Key, e Entry) {
		if _, dup := each[k]; dup {
			t.Fatalf("%s: Each visited %v twice", what, k)
		}
		each[k] = e
	})
	if len(each) != want.Pairs() {
		t.Fatalf("%s: Each visited %d pairs, want %d", what, len(each), want.Pairs())
	}
	for k, e := range each {
		if w := want.Lookup(k.Src, k.Dst); e != w {
			t.Fatalf("%s: Each gave %v %+v, want %+v", what, k, e, w)
		}
	}
	for src := 0; src < ranks; src++ {
		var visited []DstEntry
		got.EachDst(src, func(dst int, e Entry) {
			if w := want.Lookup(src, dst); e != w {
				t.Fatalf("%s: EachDst(%d) gave dst %d %+v, want %+v", what, src, dst, e, w)
			}
			if n := len(visited); n > 0 && dst <= visited[n-1].Dst {
				t.Fatalf("%s: EachDst(%d) visited dst %d after %d", what, src, dst, visited[n-1].Dst)
			}
			visited = append(visited, DstEntry{Dst: dst, Entry: e})
		})
		if inPlace := readRow(t, what, got.Row(src), src, ranks); !slices.Equal(inPlace, visited) {
			t.Fatalf("%s: Row(%d) reads %v, EachDst visited %v", what, src, inPlace, visited)
		}
		ad, av := got.AppendBySource(src, nil, nil)
		wd, _ := want.BySource(src)
		if len(ad) != len(wd) || len(av) != len(wd) {
			t.Fatalf("%s: AppendBySource(%d) listed %d destinations, want %d", what, src, len(ad), len(wd))
		}
		for i, dst := range ad {
			if w := want.Lookup(src, dst); av[i] != float64(w.Bytes) || w.Messages == 0 {
				t.Fatalf("%s: AppendBySource(%d) gave dst %d %g B, want %+v", what, src, dst, av[i], w)
			}
		}
	}
}

// FuzzAccumulate checks accumulation against full expansion: under each
// collective strategy, the matrices Accumulate builds (coalesced
// collective shapes, uniform terms) must read exactly like the ones built
// by adding every expanded message on its own.
func FuzzAccumulate(f *testing.F) {
	f.Add([]byte{6, 10, 1, 0, 4, 11, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		if tr == nil {
			return
		}
		for _, strategy := range []mpi.Strategy{mpi.StrategyDirect, mpi.StrategyTree, mpi.StrategyRing} {
			acc, err := Accumulate(tr, AccumulateOptions{Strategy: strategy})
			if err != nil {
				t.Fatalf("%v: %v", strategy, err)
			}
			p2p, wire := expandEach(t, tr, strategy)
			sameMatrix(t, strategy.String()+" wire", acc.Wire, wire)
			sameMatrix(t, strategy.String()+" p2p", acc.P2P, p2p)
		}
	})
}
