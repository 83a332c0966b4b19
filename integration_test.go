package netloc

// Cross-module integration tests: each test exercises a full user-visible
// flow across several packages, the way the examples and the cmd tools
// compose them.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/core"
	"netloc/internal/energy"
	"netloc/internal/harness"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/netmodel"
	"netloc/internal/report"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// registryMatrices is core's cached accumulate stage on a registry
// workload at one of its configured scales, without a cache.
func registryMatrices(t *testing.T, name string, ranks int) *comm.Accumulated {
	t.Helper()
	app, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	key := workcache.TraceKey{Source: workcache.SourceGenerate, App: app.Name, Ranks: ranks}
	acc, err := core.Matrices(key, func() (trace.Source, error) { return app.Stream(ranks) }, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestGenerateWriteReadAnalyze is the full trace-file round trip: generate
// a workload, persist it, stream it back, and verify the analysis is
// identical to analyzing the in-memory trace.
func TestGenerateWriteReadAnalyze(t *testing.T) {
	app, err := workloads.Lookup("Crystal Router")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := app.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cr100.nlt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	r, err := trace.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := comm.AccumulateStream(r, comm.AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aDisk, err := core.AnalyzeAccumulated(fromDisk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aMem, err := core.AnalyzeTrace(orig, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if aDisk.Peers != aMem.Peers ||
		aDisk.RankDistance != aMem.RankDistance ||
		aDisk.Selectivity != aMem.Selectivity ||
		aDisk.Torus.PacketHops != aMem.Torus.PacketHops ||
		aDisk.FatTree.AvgHops != aMem.FatTree.AvgHops ||
		aDisk.Dragonfly.UtilizationPct != aMem.Dragonfly.UtilizationPct {
		t.Fatalf("disk and memory analyses differ:\ndisk %+v\nmem  %+v", aDisk, aMem)
	}
}

// TestTextAndBinaryCodecsAgree verifies both codecs produce the same
// analysis for a generated workload.
func TestTextAndBinaryCodecsAgree(t *testing.T) {
	app, err := workloads.Lookup("MiniFE")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := app.Generate(18)
	if err != nil {
		t.Fatal(err)
	}
	var bin, txt bytes.Buffer
	if err := trace.WriteTrace(&bin, orig); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&txt, orig); err != nil {
		t.Fatal(err)
	}
	fromBin, err := trace.ReadTrace(&bin)
	if err != nil {
		t.Fatal(err)
	}
	fromTxt, err := trace.ReadText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	aBin, err := core.AnalyzeTrace(fromBin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aTxt, err := core.AnalyzeTrace(fromTxt, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aBin.RankDistance != aTxt.RankDistance || aBin.Selectivity != aTxt.Selectivity {
		t.Fatalf("codec analyses differ: %+v vs %+v", aBin, aTxt)
	}
}

// TestStaticModelAndSimulatorAgreeOnVolume cross-checks the static network
// model against the flow-level simulator: identical messages, identical
// per-link byte totals.
func TestStaticModelAndSimulatorAgreeOnVolume(t *testing.T) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.Consecutive(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	static, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{WallTime: tr.Meta.WallTime, TrackLinks: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simnet.Simulate(tr, topo, mp, simnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(sim.Messages) != static.Messages {
		t.Fatalf("message counts: sim %d vs static %d", sim.Messages, static.Messages)
	}
	// The simulator's total busy time equals byte-hops / bandwidth.
	wantBusy := float64(static.ByteHops) / 12e9
	gotBusy := sim.MeasuredUtilizationPct / 100 * sim.Makespan * float64(static.UsedLinks)
	if math.Abs(gotBusy-wantBusy) > 1e-6*wantBusy {
		t.Fatalf("busy time: sim %v vs static %v", gotBusy, wantBusy)
	}
}

// TestMappingPipelineNeverLosesToConsecutive runs the optimizer on the
// p2p matrices of several workloads: it must never end above the
// consecutive baseline (a finding in itself — for MOCFE's angular
// quarters, the torus wraparound makes the consecutive mapping a local
// optimum because the ±ranks/4 strides land on z-neighbors).
func TestMappingPipelineNeverLosesToConsecutive(t *testing.T) {
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, appName := range []string{"CESAR MOCFE", "LULESH", "CESAR Nekbone"} {
		acc := registryMatrices(t, appName, 64)
		cons, err := mapping.Consecutive(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		consCost, err := mapping.Cost(acc.P2P, topo, cons)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := mapping.Optimize(acc.P2P, topo, 15)
		if err != nil {
			t.Fatal(err)
		}
		optCost, err := mapping.Cost(acc.P2P, topo, opt)
		if err != nil {
			t.Fatal(err)
		}
		if optCost > consCost {
			t.Fatalf("%s: optimizer lost to consecutive: %v vs %v", appName, optCost, consCost)
		}
	}
}

// TestMappingPipelineImprovesScrambledPattern gives the optimizer a
// pattern whose heavy partners are bit-scrambled across the rank space —
// the case the paper's discussion targets ("communication partners are
// likely spatially separated").
func TestMappingPipelineImprovesScrambledPattern(t *testing.T) {
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := comm.NewBuilder(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pair rank i with its bit-reversed partner: heavy, spatially wild.
	rev6 := func(v int) int {
		r := 0
		for b := 0; b < 6; b++ {
			r = r<<1 | (v>>b)&1
		}
		return r
	}
	for i := 0; i < 64; i++ {
		if p := rev6(i); p != i {
			if err := builder.Add(i, p, 100000); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := builder.Matrix()
	cons, err := mapping.Consecutive(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	consCost, err := mapping.Cost(m, topo, cons)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mapping.Optimize(m, topo, 20)
	if err != nil {
		t.Fatal(err)
	}
	optCost, err := mapping.Cost(m, topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	if optCost >= consCost {
		t.Fatalf("optimizer did not improve scrambled pattern: %v vs %v", optCost, consCost)
	}
}

// TestEnergyFollowsUtilization checks the energy model across two
// workloads: the near-idle one wastes a larger share of energy.
func TestEnergyFollowsUtilization(t *testing.T) {
	estimate := func(appName string, ranks int) *energy.Estimate {
		t.Helper()
		app, err := workloads.Lookup(appName)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(ranks)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := topology.TorusConfig(ranks)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := mapping.Consecutive(ranks, topo.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		res, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{
			WallTime: tr.Meta.WallTime, TrackLinks: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := energy.FromResult(res, len(topo.Links()), tr.Meta.WallTime, 12e9, energy.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	idle := estimate("EXMATEX CMC 2D", 64) // ~0.00005% utilization
	busy := estimate("BigFFT", 9)          // >1% utilization
	if idle.IdleShare <= busy.IdleShare {
		t.Fatalf("idle share ordering: CMC %v <= BigFFT %v", idle.IdleShare, busy.IdleShare)
	}
	if idle.ScaleFraction >= busy.ScaleFraction {
		t.Fatalf("scale fraction ordering: CMC %v >= BigFFT %v", idle.ScaleFraction, busy.ScaleFraction)
	}
}

// TestHarnessRendersHeatmapCompatibleMatrices ties harness analyses to the
// heatmap renderer.
func TestHarnessRendersHeatmapCompatibleMatrices(t *testing.T) {
	acc := registryMatrices(t, "PARTISN", 168)
	var buf bytes.Buffer
	if err := report.HeatmapASCII(&buf, acc.P2P, 24); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "168 ranks") {
		t.Fatalf("heatmap header: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	var img bytes.Buffer
	if err := report.HeatmapPGM(&img, acc.P2P); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(img.Bytes(), []byte("P5\n168 168\n255\n")) {
		t.Fatal("PGM header wrong")
	}
}

// TestHarnessExperimentsSmoke runs the fast experiments end to end through
// the harness dispatcher.
func TestHarnessExperimentsSmoke(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "table4", "fig1", "fig4"} {
		var buf bytes.Buffer
		if err := harness.Run(&buf, harness.Params{Experiment: exp}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

// TestDimensionalityConsistentWithRankDistance cross-checks metrics: the
// 1D folding distance must equal the plain rank distance for every
// workload with p2p traffic at its smallest scale.
func TestDimensionalityConsistentWithRankDistance(t *testing.T) {
	for _, app := range workloads.All() {
		ranks := app.RankCounts()[0]
		acc := registryMatrices(t, app.Name, ranks)
		a, err := core.AnalyzeAccumulated(acc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.HasP2P {
			continue
		}
		r1, err := metrics.DimLocality(acc.P2P, 1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r1.Distance-a.RankDistance) > 1e-9 {
			t.Errorf("%s/%d: 1D distance %v != rank distance %v",
				app.Name, ranks, r1.Distance, a.RankDistance)
		}
	}
}

// TestHarnessJSONDeterministicUnderParallelism runs experiments through
// the full harness pipeline at Parallelism 1 and 8, and across artifact
// cache modes (disabled, cold per run, warm across runs), and requires
// the JSON outputs to be byte-identical — the engine's determinism
// contract, observed at the outermost user-visible layer. Cached matrices
// and topologies must never be distinguishable from fresh ones.
func TestHarnessJSONDeterministicUnderParallelism(t *testing.T) {
	warm := workcache.New(0)
	caches := []struct {
		name  string
		cache func() *workcache.Cache
	}{
		{"disabled", func() *workcache.Cache { return nil }},
		{"cold", func() *workcache.Cache { return workcache.New(0) }},
		{"warm", func() *workcache.Cache { return warm }},
	}
	for _, exp := range []string{"table1", "table3", "table4", "fig3"} {
		render := func(parallelism int, cache *workcache.Cache) []byte {
			t.Helper()
			var buf bytes.Buffer
			err := harness.Run(&buf, harness.Params{
				Experiment: exp,
				JSON:       true,
				Options:    core.Options{MaxRanks: 128, Parallelism: parallelism, Cache: cache},
			})
			if err != nil {
				t.Fatalf("%s (j=%d): %v", exp, parallelism, err)
			}
			return buf.Bytes()
		}
		want := render(1, nil)
		for _, c := range caches {
			for _, parallelism := range []int{1, 8} {
				got := render(parallelism, c.cache())
				if !bytes.Equal(want, got) {
					t.Errorf("%s: JSON differs at Parallelism %d with cache %s", exp, parallelism, c.name)
				}
			}
		}
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Fatalf("warm cache recorded no hits across repeated experiments: %+v", s)
	}
}
