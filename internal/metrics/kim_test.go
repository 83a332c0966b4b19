package metrics

import (
	"math"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

func sendEvent(rank, peer int, bytes uint64) trace.Event {
	return trace.Event{Rank: rank, Op: trace.OpSend, Peer: peer, Root: -1, Bytes: bytes}
}

func TestDestinationLocalityAlternation(t *testing.T) {
	// Rank 0 alternates between two destinations: depth-1 reuse is 0,
	// depth-2 reuse is 1 (after warm-up).
	tr := &trace.Trace{Meta: trace.Meta{App: "k", Ranks: 4, WallTime: 1}}
	for i := 0; i < 10; i++ {
		tr.Events = append(tr.Events, sendEvent(0, 1+i%2, 100))
	}
	res, err := DestinationLocality(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 9 {
		t.Fatalf("samples = %d, want 9", res.Samples)
	}
	if res.Hits[0] != 0 {
		t.Fatalf("depth-1 locality = %v, want 0", res.Hits[0])
	}
	// First alternation back to destination 2... message 2 (dest 1)
	// finds dest 1 at depth 2; all 8 after the first non-warmup hit at
	// depth 2 except the second message which sees only one entry:
	// stream: d1(warm) d2 d1 d2 ... message 2 (d2) misses (stack [1]),
	// remaining 8 hit at depth 2.
	if math.Abs(res.Hits[1]-8.0/9.0) > 1e-12 {
		t.Fatalf("depth-2 locality = %v, want 8/9", res.Hits[1])
	}
}

func TestDestinationLocalitySingleDestination(t *testing.T) {
	tr := &trace.Trace{Meta: trace.Meta{App: "k", Ranks: 2, WallTime: 1}}
	for i := 0; i < 5; i++ {
		tr.Events = append(tr.Events, sendEvent(0, 1, 100))
	}
	res, err := DestinationLocality(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0] != 1 {
		t.Fatalf("locality = %v, want 1", res.Hits[0])
	}
}

func TestSizeLocality(t *testing.T) {
	// Sizes cycle through 3 values: depth-3 catches all after warm-up,
	// depth-1 none.
	tr := &trace.Trace{Meta: trace.Meta{App: "k", Ranks: 2, WallTime: 1}}
	sizes := []uint64{100, 200, 300}
	for i := 0; i < 12; i++ {
		tr.Events = append(tr.Events, sendEvent(0, 1, sizes[i%3]))
	}
	res, err := SizeLocality(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0] != 0 {
		t.Fatalf("depth-1 = %v, want 0", res.Hits[0])
	}
	// Messages 2 and 3 see stacks smaller than 3; the remaining 9 hit at
	// depth 3.
	if math.Abs(res.Hits[2]-9.0/11.0) > 1e-12 {
		t.Fatalf("depth-3 = %v, want 9/11", res.Hits[2])
	}
}

func TestKimLocalityPerRankIndependence(t *testing.T) {
	// Interleaved ranks must not pollute each other's stacks.
	tr := &trace.Trace{Meta: trace.Meta{App: "k", Ranks: 4, WallTime: 1}}
	for i := 0; i < 6; i++ {
		tr.Events = append(tr.Events, sendEvent(0, 1, 100))
		tr.Events = append(tr.Events, sendEvent(2, 3, 100))
	}
	res, err := DestinationLocality(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[0] != 1 {
		t.Fatalf("locality = %v, want 1 (per-rank stacks)", res.Hits[0])
	}
}

func TestKimLocalityValidation(t *testing.T) {
	tr := &trace.Trace{Meta: trace.Meta{App: "k", Ranks: 2, WallTime: 1}}
	if _, err := DestinationLocality(tr, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
	res, err := SizeLocality(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 0 || res.Hits[0] != 0 {
		t.Fatalf("empty trace result = %+v", res)
	}
}

func TestKimHitsMonotoneInDepth(t *testing.T) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DestinationLocality(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(res.Hits); d++ {
		if res.Hits[d] < res.Hits[d-1] {
			t.Fatalf("hits not cumulative: %v", res.Hits)
		}
	}
	if res.Hits[len(res.Hits)-1] > 1 {
		t.Fatalf("probability above 1: %v", res.Hits)
	}
}

// TestKimMetricsScaleInsensitivity reproduces the observation the paper
// quotes from Kim & Lilja: their locality metrics barely move across
// problem scales — AMG at 27 vs 1728 ranks differs by well under 10
// percentage points at depth 4 — whereas the paper's rank distance grows
// by more than an order of magnitude over the same span.
func TestKimMetricsScaleInsensitivity(t *testing.T) {
	app, err := workloads.Lookup("AMG")
	if err != nil {
		t.Fatal(err)
	}
	var kim []float64
	var dist []float64
	for _, ranks := range []int{27, 1728} {
		tr, err := app.Generate(ranks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DestinationLocality(tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		kim = append(kim, res.Hits[3])
		a, err := analyzeP2P(tr)
		if err != nil {
			t.Fatal(err)
		}
		dist = append(dist, a)
	}
	if math.Abs(kim[0]-kim[1]) > 0.10 {
		t.Fatalf("Kim locality moved too much with scale: %v", kim)
	}
	if dist[1] < 5*dist[0] {
		t.Fatalf("rank distance should grow strongly with scale: %v", dist)
	}
}

// analyzeP2P computes the rank distance of a trace's p2p matrix (test
// helper without importing core, which would cycle).
func analyzeP2P(tr *trace.Trace) (float64, error) {
	m, err := p2pMatrix(tr)
	if err != nil {
		return 0, err
	}
	return RankDistance(m, 0.9)
}

// p2pMatrix accumulates a trace's sends into a matrix.
func p2pMatrix(tr *trace.Trace) (*comm.Matrix, error) {
	b, err := comm.NewBuilder(tr.Meta.Ranks, 0)
	if err != nil {
		return nil, err
	}
	for _, e := range tr.Events {
		if e.Op == trace.OpSend {
			if err := b.Add(e.Rank, e.Peer, e.Bytes); err != nil {
				return nil, err
			}
		}
	}
	return b.Matrix(), nil
}
