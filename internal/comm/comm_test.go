package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"netloc/internal/mpi"
	"netloc/internal/trace"
)

func mustBuilder(t *testing.T, ranks, ps int) *Builder {
	t.Helper()
	b, err := NewBuilder(ranks, ps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, 0); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if ps := mustBuilder(t, 4, 0).Matrix().PacketSize(); ps != DefaultPacketSize {
		t.Fatalf("default packet size = %d", ps)
	}
	if ps := mustBuilder(t, 4, 512).Matrix().PacketSize(); ps != 512 {
		t.Fatalf("packet size = %d", ps)
	}
}

func TestPacketsFor(t *testing.T) {
	m := mustBuilder(t, 2, 4096).Matrix()
	cases := []struct {
		bytes, want uint64
	}{
		{0, 0}, {1, 1}, {4095, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {8193, 3},
	}
	for _, c := range cases {
		if got := m.PacketsFor(c.bytes); got != c.want {
			t.Errorf("PacketsFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestAddAccumulates(t *testing.T) {
	b := mustBuilder(t, 4, 4096)
	if err := b.Add(0, 1, 5000); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	m := b.Matrix()
	e := m.Lookup(0, 1)
	if e.Bytes != 5100 || e.Messages != 2 || e.Packets != 3 {
		t.Fatalf("entry = %+v", e)
	}
	if m.Pairs() != 2 {
		t.Fatalf("pairs = %d", m.Pairs())
	}
	if m.TotalBytes() != 5101 || m.TotalMessages() != 3 || m.TotalPackets() != 4 {
		t.Fatalf("totals = %d/%d/%d", m.TotalBytes(), m.TotalMessages(), m.TotalPackets())
	}
	if z := m.Lookup(2, 3); z != (Entry{}) {
		t.Fatalf("zero lookup = %+v", z)
	}
}

func TestAddValidation(t *testing.T) {
	b := mustBuilder(t, 4, 0)
	if err := b.Add(0, 0, 1); err == nil {
		t.Fatal("self message accepted")
	}
	if err := b.Add(-1, 0, 1); err == nil {
		t.Fatal("negative src accepted")
	}
	if err := b.Add(0, 4, 1); err == nil {
		t.Fatal("dst out of range accepted")
	}
}

// Matrix ends the build: every later write to the builder fails and
// leaves the matrix as it was, and Matrix returns the same matrix again.
func TestWriteAfterMatrixFails(t *testing.T) {
	b := mustBuilder(t, 4, 0)
	if err := b.Add(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	m := b.Matrix()
	for name, write := range map[string]func() error{
		"Add":        func() error { return b.Add(0, 1, 8) },
		"AddN":       func() error { return b.AddN(2, 3, 8, 2) },
		"addUniform": func() error { return b.addUniform(1, 8, 1) },
	} {
		if err := write(); err == nil {
			t.Errorf("%s after Matrix accepted", name)
		}
	}
	if b.Matrix() != m {
		t.Error("a second Matrix call returned another matrix")
	}
	if m.Pairs() != 1 || m.TotalBytes() != 100 || m.Lookup(0, 1) != (Entry{Bytes: 100, Messages: 1, Packets: 1}) {
		t.Errorf("refused writes changed the matrix: %d pairs, %d B, 0->1 %+v", m.Pairs(), m.TotalBytes(), m.Lookup(0, 1))
	}
}

func TestBySource(t *testing.T) {
	b := mustBuilder(t, 4, 0)
	_ = b.Add(0, 2, 20)
	_ = b.Add(0, 1, 10)
	_ = b.Add(1, 2, 99)
	m := b.Matrix()
	dsts, vols := m.BySource(0)
	if !slices.Equal(dsts, []int{1, 2}) || !slices.Equal(vols, []float64{10, 20}) {
		t.Fatalf("BySource(0) = %v, %v", dsts, vols)
	}
	if d, v := m.BySource(3); d != nil || v != nil {
		t.Fatalf("BySource(3) = %v, %v", d, v)
	}
}

func TestEachVisitsAllPairs(t *testing.T) {
	b := mustBuilder(t, 4, 0)
	_ = b.Add(0, 1, 10)
	_ = b.Add(2, 3, 20)
	seen := map[Key]uint64{}
	b.Matrix().Each(func(k Key, e Entry) { seen[k] = e.Bytes })
	if len(seen) != 2 || seen[Key{0, 1}] != 10 || seen[Key{2, 3}] != 20 {
		t.Fatalf("seen = %v", seen)
	}
}

func testTrace() *trace.Trace {
	return &trace.Trace{
		Meta: trace.Meta{App: "t", Ranks: 4, WallTime: 2},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 8192},
			{Rank: 1, Op: trace.OpRecv, Peer: 0, Root: -1, Bytes: 8192},
			{Rank: 0, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 100},
			{Rank: 1, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 100},
			{Rank: 2, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 100},
			{Rank: 3, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 100},
		},
	}
}

func TestAccumulateSeparatesP2PAndWire(t *testing.T) {
	acc, err := Accumulate(testTrace(), AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// P2P: only the send.
	if acc.P2P.TotalBytes() != 8192 || acc.P2P.Pairs() != 1 {
		t.Fatalf("p2p totals: %d bytes, %d pairs", acc.P2P.TotalBytes(), acc.P2P.Pairs())
	}
	// Wire: send + 4 ranks * 3 peers * 100 bytes of allreduce.
	wantWire := uint64(8192 + 12*100)
	if acc.Wire.TotalBytes() != wantWire {
		t.Fatalf("wire bytes = %d, want %d", acc.Wire.TotalBytes(), wantWire)
	}
	if acc.Wire.Pairs() != 12 { // all ordered pairs (0,1 included via both)
		t.Fatalf("wire pairs = %d, want 12", acc.Wire.Pairs())
	}
	if acc.CallerP2PBytes != 8192 || acc.CallerCollBytes != 400 {
		t.Fatalf("caller totals: %d / %d", acc.CallerP2PBytes, acc.CallerCollBytes)
	}
	if acc.Meta.App != "t" {
		t.Fatalf("meta not carried: %+v", acc.Meta)
	}
}

func TestAccumulateStreamMatchesAccumulate(t *testing.T) {
	tr := testTrace()
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := AccumulateStream(r, AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Accumulate(tr, AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fromStream.Wire.TotalBytes() != direct.Wire.TotalBytes() ||
		fromStream.P2P.TotalBytes() != direct.P2P.TotalBytes() ||
		fromStream.Wire.Pairs() != direct.Wire.Pairs() {
		t.Fatal("stream and direct accumulation differ")
	}
}

func TestAccumulatePacketSizeOption(t *testing.T) {
	tr := &trace.Trace{
		Meta:   trace.Meta{App: "t", Ranks: 2, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 1000}},
	}
	acc, err := Accumulate(tr, AccumulateOptions{PacketSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Wire.TotalPackets() != 10 {
		t.Fatalf("packets = %d, want 10", acc.Wire.TotalPackets())
	}
}

func TestAccumulateRejectsBadTrace(t *testing.T) {
	tr := &trace.Trace{
		Meta:   trace.Meta{App: "t", Ranks: 2, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.Op(99), Peer: -1, Root: -1}},
	}
	if _, err := Accumulate(tr, AccumulateOptions{}); err == nil {
		t.Fatal("bad op accepted")
	}
	bad := &trace.Trace{Meta: trace.Meta{Ranks: 0}}
	if _, err := Accumulate(bad, AccumulateOptions{}); err == nil {
		t.Fatal("bad meta accepted")
	}
}

// Property: wire totals always dominate p2p totals, and packet counts are
// consistent with ceil packetization.
func TestAccumulateDominanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 2 + rng.Intn(10)
		tr := &trace.Trace{Meta: trace.Meta{App: "p", Ranks: ranks, WallTime: 1}}
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			r := rng.Intn(ranks)
			if rng.Intn(2) == 0 {
				tr.Events = append(tr.Events, trace.Event{
					Rank: r, Op: trace.OpSend, Peer: (r + 1 + rng.Intn(ranks-1)) % ranks,
					Root: -1, Bytes: uint64(rng.Intn(10000)),
				})
			} else {
				tr.Events = append(tr.Events, trace.Event{
					Rank: r, Op: trace.OpAllreduce, Peer: -1, Root: -1,
					Bytes: uint64(rng.Intn(1000)),
				})
			}
		}
		acc, err := Accumulate(tr, AccumulateOptions{})
		if err != nil {
			return false
		}
		if acc.Wire.TotalBytes() < acc.P2P.TotalBytes() {
			return false
		}
		if acc.Wire.TotalPackets() < acc.P2P.TotalPackets() {
			return false
		}
		// Per-pair packet consistency: packets >= ceil(bytes/ps/msgs)
		// and packets <= messages * ceil(maxBytes/ps); check the weaker
		// invariant packets >= ceil(bytes/ps).
		ok := true
		acc.Wire.Each(func(k Key, e Entry) {
			if e.Packets < acc.Wire.PacketsFor(e.Bytes)/e.Messages {
				ok = false
			}
			if e.Messages == 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRowAccessorsAgreeAcrossRepresentations drives the same random
// matrix through the streaming accessors (EachDst, AppendBySource) and
// the reference ones (Each, BySource), on both sides of the
// dense-promotion threshold: hot rows (promoted to the dense slice) and
// sorted rows must report identical contents. An accumulated wire matrix
// adds uniform rows (a term only, a term plus sorted entries, a term plus
// a dense row); as built, all dense, and all sorted, it must read like
// the pair-by-pair expansion of its trace.
func TestRowAccessorsAgreeAcrossRepresentations(t *testing.T) {
	const ranks = 96 // threshold = 24: rows below stay sparse, above go dense
	b := mustBuilder(t, ranks, 0)
	rng := rand.New(rand.NewSource(7))
	tr := &trace.Trace{Meta: trace.Meta{App: "rows", Ranks: ranks, WallTime: 1}}
	for src := 0; src < ranks; src++ {
		dsts := 3 + rng.Intn(8) // sparse
		if src%2 == 0 {
			dsts = 30 + rng.Intn(40) // past the threshold: promoted
		}
		if src%4 == 3 {
			dsts = 0
		}
		for j := 0; j < dsts; j++ {
			dst := rng.Intn(ranks)
			if dst == src {
				continue
			}
			bytes := uint64(1 + rng.Intn(1<<16))
			if err := b.Add(src, dst, bytes); err != nil {
				t.Fatal(err)
			}
			tr.Events = append(tr.Events, trace.Event{Rank: src, Op: trace.OpSend, Peer: dst, Root: -1, Bytes: bytes})
		}
		if src%4 != 0 {
			tr.Events = append(tr.Events, trace.Event{Rank: src, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: uint64(src)})
		}
	}
	checkRowAccessors(t, "added", b.Matrix())
	acc, err := Accumulate(tr, AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want := expandEach(t, tr, mpi.StrategyDirect)
	sameMatrix(t, "accumulated", acc.Wire, want)
	for _, dense := range []bool{true, false} {
		acc.Wire.Relayout(dense)
		sameMatrix(t, fmt.Sprintf("relaid out (dense %v)", dense), acc.Wire, want)
	}
}

// checkRowAccessors compares, row by row, what EachDst and
// AppendBySource report with what Each and BySource report.
func checkRowAccessors(t *testing.T, name string, m *Matrix) {
	t.Helper()
	ranks := m.Ranks()
	// Reference: every pair seen by Each, grouped by source.
	type row map[int]Entry
	want := make([]row, ranks)
	for i := range want {
		want[i] = row{}
	}
	m.Each(func(k Key, e Entry) { want[k.Src][k.Dst] = e })

	scratchD, scratchV := make([]int, 0, ranks), make([]float64, 0, ranks)
	for src := 0; src < ranks; src++ {
		got := row{}
		m.EachDst(src, func(dst int, e Entry) {
			if _, dup := got[dst]; dup {
				t.Fatalf("%s: src %d: EachDst visited dst %d twice", name, src, dst)
			}
			got[dst] = e
		})
		if len(got) != len(want[src]) {
			t.Fatalf("%s: src %d: EachDst saw %d dsts, Each saw %d", name, src, len(got), len(want[src]))
		}
		for dst, e := range want[src] {
			if got[dst] != e || m.Lookup(src, dst) != e {
				t.Fatalf("%s: src %d->%d: EachDst entry %+v, Lookup %+v != Each entry %+v", name, src, dst, got[dst], m.Lookup(src, dst), e)
			}
		}

		bd, bv := m.BySource(src)
		ad, av := m.AppendBySource(src, scratchD[:0], scratchV[:0])
		if len(ad) != len(bd) || len(av) != len(bv) || len(bd) != len(want[src]) {
			t.Fatalf("%s: src %d: AppendBySource lengths (%d,%d) != BySource (%d,%d)",
				name, src, len(ad), len(av), len(bd), len(bv))
		}
		bySrc := map[int]float64{}
		for i, d := range bd {
			bySrc[d] = bv[i]
		}
		for i, d := range ad {
			if bySrc[d] != av[i] || float64(want[src][d].Bytes) != av[i] {
				t.Fatalf("%s: src %d dst %d: AppendBySource vol %g != BySource %g", name, src, d, av[i], bySrc[d])
			}
		}
	}
}

// Byte sums stop at MaxVolume: a message that would carry a matrix past
// it, by its own size or by wrapping bytes × count, fails and leaves the
// matrix untouched.
func TestAddNRejectsVolumePastCeiling(t *testing.T) {
	b := mustBuilder(t, 4, 0)
	if err := b.AddN(0, 1, MaxVolume/4, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 2, MaxVolume/4); err != nil {
		t.Fatalf("volume exactly at the ceiling refused: %v", err)
	}
	for _, c := range []struct {
		bytes, n uint64
	}{
		{1, 1},
		{1 << 63, 2}, // the product wraps to 0
		{1 << 32, 1 << 32},
	} {
		if err := b.AddN(2, 3, c.bytes, c.n); err == nil {
			t.Fatalf("AddN(%d B × %d) past the ceiling accepted", c.bytes, c.n)
		}
	}
	m := b.Matrix()
	if m.TotalBytes() != MaxVolume || m.Pairs() != 2 || m.Lookup(2, 3) != (Entry{}) {
		t.Fatalf("refused AddN changed the matrix: total %d, pairs %d", m.TotalBytes(), m.Pairs())
	}
}

// Two 2^63-byte sends used to wrap the wire volume to the third send's
// 1,000 bytes, and two 2^63-byte barriers (which put nothing on the
// wire) the caller-side collective total to 0; both must fail. So must
// an allreduce of MaxVolume bytes over 65,538 ranks: its caller total and
// bytes × rounds stay at the ceiling, but × (ranks−1) passes 2^64, where
// it would wrap to 2^48. Each fails the same way on every run.
func TestAccumulateRejectsWrappingVolume(t *testing.T) {
	meta := trace.Meta{App: "t", Ranks: 2, WallTime: 1}
	sends := &trace.Trace{Meta: meta, Events: []trace.Event{
		{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 1 << 63},
		{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 1 << 63},
		{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 1000},
	}}
	barriers := &trace.Trace{Meta: meta, Events: []trace.Event{
		{Rank: 0, Op: trace.OpBarrier, Peer: -1, Root: -1, Bytes: 1 << 63},
		{Rank: 1, Op: trace.OpBarrier, Peer: -1, Root: -1, Bytes: 1 << 63},
	}}
	wide := &trace.Trace{Meta: trace.Meta{App: "t", Ranks: 1<<16 + 2, WallTime: 1}, Events: []trace.Event{
		{Rank: 0, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: MaxVolume},
	}}
	for name, tr := range map[string]*trace.Trace{"sends": sends, "barriers": barriers, "wide allreduce": wide} {
		acc, err := Accumulate(tr, AccumulateOptions{})
		if err == nil {
			t.Fatalf("%s: accepted with wire volume %d B, caller totals %d/%d B",
				name, acc.Wire.TotalBytes(), acc.CallerP2PBytes, acc.CallerCollBytes)
		}
		if !strings.Contains(err.Error(), "MaxVolume") {
			t.Errorf("%s: error %q does not name MaxVolume", name, err)
		}
		if _, again := Accumulate(tr, AccumulateOptions{}); again == nil || again.Error() != err.Error() {
			t.Errorf("%s: failed with %v, then with %v", name, err, again)
		}
	}
}

// Collective shapes are expanded in a fixed order, so a trace whose
// expanded allreduces take the wire matrix past MaxVolume (while the
// caller-side total stays at it) fails with the same error every time.
func TestAccumulateCollectiveOverflowErrorIsStable(t *testing.T) {
	tr := &trace.Trace{Meta: trace.Meta{App: "t", Ranks: 4, WallTime: 1}}
	for r := 0; r < 4; r++ {
		tr.Events = append(tr.Events, trace.Event{Rank: r, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: MaxVolume / 4})
	}
	_, first := Accumulate(tr, AccumulateOptions{})
	if first == nil {
		t.Fatal("wire volume past the ceiling accepted")
	}
	for i := 0; i < 20; i++ {
		if _, err := Accumulate(tr, AccumulateOptions{}); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d failed with %v, the first with %v", i, err, first)
		}
	}
}
