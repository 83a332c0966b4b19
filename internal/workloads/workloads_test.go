package workloads

import (
	"math"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"AMG", "AMR_Miniapp", "BigFFT", "Boxlib CNS", "Boxlib MultiGrid C",
		"CESAR MOCFE", "CESAR Nekbone", "Crystal Router", "EXMATEX CMC 2D",
		"FillBoundary", "LULESH", "MiniFE", "MultiGrid_C", "PARTISN", "SNAP",
	}
	got := Names()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if len(All()) != len(want) {
		t.Fatalf("All() has %d apps", len(All()))
	}
}

func TestLookup(t *testing.T) {
	a, err := Lookup("LULESH")
	if err != nil || a.Name != "LULESH" {
		t.Fatalf("Lookup(LULESH) = %v, %v", a, err)
	}
	if _, err := Lookup("NoSuchApp"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestScalesMatchTable1(t *testing.T) {
	// Spot-check rank counts per app against Table 1.
	want := map[string][]int{
		"AMG":                {8, 27, 216, 1728},
		"AMR_Miniapp":        {64, 1728},
		"BigFFT":             {9, 100, 1024},
		"Boxlib CNS":         {64, 256, 1024},
		"Boxlib MultiGrid C": {64, 256, 1024},
		"CESAR MOCFE":        {64, 256, 1024},
		"CESAR Nekbone":      {64, 256, 1024},
		"Crystal Router":     {10, 100, 1000},
		"EXMATEX CMC 2D":     {64, 256, 1024},
		"LULESH":             {64, 512},
		"FillBoundary":       {125, 1000},
		"MiniFE":             {18, 144, 1152},
		"MultiGrid_C":        {125, 1000},
		"PARTISN":            {168},
		"SNAP":               {168},
	}
	for name, scales := range want {
		a, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if got := a.RankCounts(); !reflect.DeepEqual(got, scales) {
			t.Errorf("%s scales = %v, want %v", name, got, scales)
		}
	}
}

func TestScaleTime(t *testing.T) {
	// PARTISN: 42123 MB at 0.02 MB/s is ~2.1e6 s (the table's 2.2E+6).
	a, _ := Lookup("PARTISN")
	s, err := a.ScaleFor(168)
	if err != nil {
		t.Fatal(err)
	}
	if tt := s.Time(); math.Abs(tt-2.1e6) > 0.1e6 {
		t.Fatalf("PARTISN time = %v", tt)
	}
	if _, err := a.ScaleFor(999); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestGenerateUnknownScale(t *testing.T) {
	a, _ := Lookup("AMG")
	if _, err := a.Generate(12345); err == nil {
		t.Fatal("unknown rank count accepted")
	}
}

// TestGenerateCalibration checks, for the smallest scale of every app,
// that the generated trace validates and that the caller-side volume and
// p2p/collective split land within 1% of Table 1.
func TestGenerateCalibration(t *testing.T) {
	for _, a := range All() {
		s := a.Scales[0]
		tr, err := a.Generate(s.Ranks)
		if err != nil {
			t.Fatalf("%s/%d: %v", a.Name, s.Ranks, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s/%d: invalid trace: %v", a.Name, s.Ranks, err)
		}
		if tr.Meta.Ranks != s.Ranks {
			t.Fatalf("%s: meta ranks %d", a.Name, tr.Meta.Ranks)
		}
		if math.Abs(tr.Meta.WallTime-s.Time()) > 1e-9*s.Time() {
			t.Fatalf("%s: wall time %v, want %v", a.Name, tr.Meta.WallTime, s.Time())
		}
		p2p, coll := tr.TotalBytes()
		total := float64(p2p + coll)
		wantTotal := s.VolMB * 1e6
		if math.Abs(total-wantTotal) > 0.01*wantTotal {
			t.Errorf("%s/%d: volume %.3g, want %.3g", a.Name, s.Ranks, total, wantTotal)
		}
		gotP2PPct := 100 * float64(p2p) / total
		if math.Abs(gotP2PPct-s.P2PPct) > 1.0 {
			t.Errorf("%s/%d: p2p share %.2f%%, want %.2f%%", a.Name, s.Ranks, gotP2PPct, s.P2PPct)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Lookup("AMR_Miniapp")
	t1, err := a.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("generation not deterministic")
	}
}

func accumulate(t *testing.T, app string, ranks int) *comm.Accumulated {
	t.Helper()
	a, err := Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Generate(ranks)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestLULESHStencilShape(t *testing.T) {
	acc := accumulate(t, "LULESH", 64)
	// Interior rank of a 4x4x4 grid has 26 stencil partners.
	maxPeers := 0
	for src := 0; src < 64; src++ {
		d, _ := acc.P2P.BySource(src)
		if len(d) > maxPeers {
			maxPeers = len(d)
		}
	}
	if maxPeers != 26 {
		t.Fatalf("LULESH peers = %d, want 26", maxPeers)
	}
	// No collectives at all.
	if acc.CallerCollBytes != 0 {
		t.Fatalf("LULESH collective bytes = %d", acc.CallerCollBytes)
	}
}

func TestBigFFTHasNoP2P(t *testing.T) {
	acc := accumulate(t, "BigFFT", 9)
	if acc.P2P.TotalBytes() != 0 {
		t.Fatalf("BigFFT p2p bytes = %d", acc.P2P.TotalBytes())
	}
	// Wire traffic touches every ordered pair (all-to-all transpose).
	if acc.Wire.Pairs() != 9*8 {
		t.Fatalf("BigFFT wire pairs = %d, want 72", acc.Wire.Pairs())
	}
	// Wire amplification: each caller byte reaches ranks-1 peers.
	wantWire := acc.CallerCollBytes * 8
	if acc.Wire.TotalBytes() != wantWire {
		t.Fatalf("BigFFT wire bytes = %d, want %d", acc.Wire.TotalBytes(), wantWire)
	}
}

func TestPARTISNPeersAndDistance(t *testing.T) {
	acc := accumulate(t, "PARTISN", 168)
	// Every rank chats with everyone: peak peers = 167.
	maxPeers := 0
	for src := 0; src < 168; src++ {
		d, _ := acc.P2P.BySource(src)
		if len(d) > maxPeers {
			maxPeers = len(d)
		}
	}
	if maxPeers != 167 {
		t.Fatalf("PARTISN peers = %d, want 167", maxPeers)
	}
}

func TestCrystalRouterHypercubePartners(t *testing.T) {
	acc := accumulate(t, "Crystal Router", 10)
	// Rank 0 partners: 1, 2, 4, 8 (xor powers of two below 10).
	dsts, _ := acc.P2P.BySource(0)
	want := map[int]bool{1: true, 2: true, 4: true, 8: true}
	if len(dsts) != 4 {
		t.Fatalf("rank 0 partners = %v", dsts)
	}
	for _, d := range dsts {
		if !want[d] {
			t.Fatalf("unexpected partner %d", d)
		}
	}
}

func TestMOCFECollectiveDominated(t *testing.T) {
	acc := accumulate(t, "CESAR MOCFE", 64)
	total := acc.CallerP2PBytes + acc.CallerCollBytes
	collPct := 100 * float64(acc.CallerCollBytes) / float64(total)
	if collPct < 90 {
		t.Fatalf("MOCFE collective share = %.1f%%, want ~95%%", collPct)
	}
	// Peers: ring ±1..4 (8) plus up to three in-bounds angular quarter
	// partners = 11 (the paper reports 12).
	maxPeers := 0
	for src := 0; src < 64; src++ {
		d, _ := acc.P2P.BySource(src)
		if len(d) > maxPeers {
			maxPeers = len(d)
		}
	}
	if maxPeers != 11 {
		t.Fatalf("MOCFE peers = %d, want 11", maxPeers)
	}
}

func TestCMCTinyVolume(t *testing.T) {
	acc := accumulate(t, "EXMATEX CMC 2D", 64)
	if acc.P2P.TotalBytes() != 0 {
		t.Fatal("CMC should have no p2p")
	}
	total := float64(acc.CallerP2PBytes + acc.CallerCollBytes)
	if math.Abs(total-16.0e6) > 0.2e6 {
		t.Fatalf("CMC volume = %g, want 16 MB", total)
	}
}

func TestAMRWidePeers(t *testing.T) {
	acc := accumulate(t, "AMR_Miniapp", 64)
	maxPeers := 0
	for src := 0; src < 64; src++ {
		d, _ := acc.P2P.BySource(src)
		if len(d) > maxPeers {
			maxPeers = len(d)
		}
	}
	// Stencil (26) plus refinement partners: well above a plain stencil
	// but far below all-to-all.
	if maxPeers <= 26 || maxPeers >= 64 {
		t.Fatalf("AMR peers = %d, want in (26, 64)", maxPeers)
	}
}

func TestMiniFETrimmedCorners(t *testing.T) {
	acc := accumulate(t, "MiniFE", 144)
	maxPeers := 0
	for src := 0; src < 144; src++ {
		d, _ := acc.P2P.BySource(src)
		if len(d) > maxPeers {
			maxPeers = len(d)
		}
	}
	// Faces + edges + 4 parity corners = 22 for interior ranks.
	if maxPeers != 22 {
		t.Fatalf("MiniFE peers = %d, want 22", maxPeers)
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		8:    {2, 2, 2},
		27:   {3, 3, 3},
		64:   {4, 4, 4},
		216:  {6, 6, 6},
		1728: {12, 12, 12},
		144:  {6, 6, 4},
		256:  {8, 8, 4},
		512:  {8, 8, 8},
		1024: {16, 8, 8},
		18:   {3, 3, 2},
		125:  {5, 5, 5},
		1152: {12, 12, 8},
	}
	for n, want := range cases {
		g, err := factor3(n)
		if err != nil {
			t.Fatalf("factor3(%d): %v", n, err)
		}
		if g.ranks() != n {
			t.Fatalf("factor3(%d) volume %d", n, g.ranks())
		}
		dims := [3]int{g.x, g.y, g.z}
		// Accept any permutation of the expected balanced shape.
		sortDesc := func(d [3]int) [3]int {
			if d[0] < d[1] {
				d[0], d[1] = d[1], d[0]
			}
			if d[1] < d[2] {
				d[1], d[2] = d[2], d[1]
			}
			if d[0] < d[1] {
				d[0], d[1] = d[1], d[0]
			}
			return d
		}
		if sortDesc(dims) != sortDesc(want) {
			t.Errorf("factor3(%d) = %v, want %v", n, dims, want)
		}
	}
	if _, err := factor3(17); err == nil {
		t.Fatal("prime should not factor")
	}
}

func TestFactor2(t *testing.T) {
	g, err := factor2(168)
	if err != nil {
		t.Fatal(err)
	}
	if g.x*g.y != 168 || g.y != 12 || g.x != 14 {
		t.Fatalf("factor2(168) = %dx%d", g.x, g.y)
	}
	g2, err := factor2(7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.x != 7 || g2.y != 1 {
		t.Fatalf("factor2(7) = %dx%d", g2.x, g2.y)
	}
}

func TestXorshiftDeterministic(t *testing.T) {
	a := newXorshift(42)
	b := newXorshift(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("xorshift not deterministic")
		}
	}
	z := newXorshift(0)
	if z.next() == 0 {
		t.Fatal("zero seed must still produce values")
	}
	c := newXorshift(7)
	v := c.intn(10)
	if v < 0 || v >= 10 {
		t.Fatalf("intn out of range: %d", v)
	}
	if c.intn(0) != 0 {
		t.Fatal("intn(0) should be 0")
	}
}

// build opens a spec's stream and collects it.
func build(sp *spec) (*trace.Trace, error) {
	s, err := sp.stream()
	if err != nil {
		return nil, err
	}
	return trace.Collect(s)
}

func TestSpecBuildErrors(t *testing.T) {
	// Target p2p volume without a pattern must fail.
	sp := newSpec(Scale{Ranks: 4, VolMB: 1, RateMBps: 1, P2PPct: 100})
	sp.name = "broken"
	if _, err := build(sp); err == nil {
		t.Fatal("p2p target without pattern accepted")
	}
	// Target collective volume without a pattern must fail.
	sp2 := newSpec(Scale{Ranks: 4, VolMB: 1, RateMBps: 1, P2PPct: 0})
	sp2.name = "broken2"
	if _, err := build(sp2); err == nil {
		t.Fatal("collective target without pattern accepted")
	}
}

func TestSpecIgnoresDegenerateSends(t *testing.T) {
	sp := newSpec(Scale{Ranks: 4, VolMB: 1, RateMBps: 1, P2PPct: 100})
	sp.send(1, 1, 10, 1) // self
	sp.send(0, 1, 0, 1)  // zero weight
	sp.send(0, 1, -5, 1) // negative weight
	if len(sp.p2p.chunks) != 0 {
		t.Fatalf("degenerate sends recorded: %+v", sp.p2p)
	}
	sp.send(0, 1, 1, 0) // msgs clamped to 1
	if len(sp.p2p.chunks) != 1 || len(sp.p2p.chunks[0]) != 1 || sp.p2p.chunks[0][0].msgs != 1 {
		t.Fatalf("send not normalized: %+v", sp.p2p)
	}
}

func TestRootedCollectiveGetsRoot(t *testing.T) {
	sp := newSpec(Scale{Ranks: 4, VolMB: 1, RateMBps: 1, P2PPct: 0})
	sp.name = "bcastapp"
	sp.collective(trace.OpBcast, 2, 1, 1)
	tr, err := build(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.Op == trace.OpBcast && e.Root != 2 {
			t.Fatalf("bcast root = %d", e.Root)
		}
	}
}

func TestTimestampsMonotone(t *testing.T) {
	a, _ := Lookup("LULESH")
	tr, err := a.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, e := range tr.Events {
		if e.Start < prev {
			t.Fatalf("event %d starts before previous", i)
		}
		if e.End < e.Start {
			t.Fatalf("event %d ends before start", i)
		}
		prev = e.Start
	}
	last := tr.Events[len(tr.Events)-1]
	if float64(last.End) > tr.Meta.WallTime*1e9*1.01+1e6 {
		t.Fatalf("events overrun wall time: %d vs %g", last.End, tr.Meta.WallTime*1e9)
	}
}

// TestGenerateCalibrationAllScales verifies every one of the 38
// configurations — not just the smallest per app — lands within 1% of
// Table 1's volume and within a percentage point of its p2p share.
func TestGenerateCalibrationAllScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, a := range All() {
		for _, s := range a.Scales {
			tr, err := a.Generate(s.Ranks)
			if err != nil {
				t.Fatalf("%s/%d: %v", a.Name, s.Ranks, err)
			}
			p2p, coll := tr.TotalBytes()
			total := float64(p2p + coll)
			wantTotal := s.VolMB * 1e6
			if math.Abs(total-wantTotal) > 0.01*wantTotal {
				t.Errorf("%s/%d: volume %.4g, want %.4g", a.Name, s.Ranks, total, wantTotal)
			}
			gotP2P := 100 * float64(p2p) / total
			if math.Abs(gotP2P-s.P2PPct) > 1.0 {
				t.Errorf("%s/%d: p2p %.2f%%, want %.2f%%", a.Name, s.Ranks, gotP2P, s.P2PPct)
			}
			// Every rank must participate in communication (events from
			// all ranks), matching real application traces.
			seen := make([]bool, s.Ranks)
			for _, e := range tr.Events {
				seen[e.Rank] = true
			}
			for r, ok := range seen {
				if !ok {
					t.Errorf("%s/%d: rank %d silent", a.Name, s.Ranks, r)
					break
				}
			}
		}
	}
}
