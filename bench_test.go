// Package netloc's root benchmark harness regenerates every table and
// figure of the paper's evaluation once per benchmark iteration, so
//
//	go test -bench=. -benchmem
//
// exercises the full reproduction. Key scalar outcomes are attached as
// custom benchmark metrics (and logged with -v) so runs can be compared
// against the published numbers; the cmd/locality binary prints the full
// row/series layout of each table.
package netloc

import (
	"io"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/mpi"
	"netloc/internal/netmodel"
	"netloc/internal/report"
	"netloc/internal/topology"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// BenchmarkTable1Overview regenerates the workload-overview table
// (ranks, time, volume, p2p/collective split, throughput for all 38
// configurations).
func BenchmarkTable1Overview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table1(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Table1(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "rows")
		}
	}
}

// BenchmarkTable2Configs regenerates the topology-configuration ladder.
func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table2(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Table2(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "rows")
		}
	}
}

// BenchmarkTable3Characterization regenerates the paper's main table: the
// MPI-level metrics (peers, rank distance, selectivity) and the
// system-level metrics (packet hops, average hops, utilization) on torus,
// fat tree, and dragonfly for every configuration. It also derives the
// headline claims so the run's shape can be compared with the paper's.
func BenchmarkTable3Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table3(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Table3(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := core.SummarizeClaims(rows)
			b.ReportMetric(c.SelectivityLE10Pct, "%sel<=10")
			b.ReportMetric(c.UtilizationLT1Pct, "%util<1")
			b.ReportMetric(c.DragonflyGlobalSharePct, "%df-global")
			b.Logf("claims: selectivity<=10 in %.1f%% of p2p configs (paper ~89%%), "+
				"utilization<1%% in %.1f%% of cells (paper ~93%%), dragonfly global share %.1f%% (paper ~95%%)",
				c.SelectivityLE10Pct, c.UtilizationLT1Pct, c.DragonflyGlobalSharePct)
		}
	}
}

// BenchmarkTable4Dimensionality regenerates the 1D/2D/3D rank-locality
// foldings for the paper's selected workloads.
func BenchmarkTable4Dimensionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table4(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Table4(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%s/%d: 1D %.0f%% 2D %.0f%% 3D %.0f%%", r.App, r.Ranks, r.Loc1D, r.Loc2D, r.Loc3D)
			}
		}
	}
}

// BenchmarkFigure1SelectivityIllustration regenerates the sorted
// partner-volume curve of LULESH rank 0.
func BenchmarkFigure1SelectivityIllustration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curve, err := core.Figure1("LULESH", 64, 0, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Curve(io.Discard, "LULESH r0", curve, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(curve)), "partners")
		}
	}
}

// BenchmarkFigure3SelectivityTrends regenerates the cumulative
// traffic-share curves of all workloads.
func BenchmarkFigure3SelectivityTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := core.Figure3(core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure3(io.Discard, curves, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(curves)), "workloads")
		}
	}
}

// BenchmarkFigure4SelectivityScaling regenerates the AMG selectivity
// saturation study across its four scales.
func BenchmarkFigure4SelectivityScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := core.Figure4("AMG", core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure3(io.Discard, curves, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range curves {
				b.Logf("AMG/%d selectivity %.1f", c.Ranks, c.Selectivity)
			}
		}
	}
}

// BenchmarkFigure5MultiCore regenerates the cores-per-socket inter-node
// traffic study for every configuration with at least 512 ranks.
func BenchmarkFigure5MultiCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := core.Figure5(512, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Figure5(io.Discard, series, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(series)), "workloads")
		}
	}
}

// BenchmarkHeadlineClaims recomputes only the claims summary (a cheap
// derivation once Table 3 is computed; kept separate so the claims path is
// benchmarked end to end).
func BenchmarkHeadlineClaims(b *testing.B) {
	rows, err := core.Table3(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.SummarizeClaims(rows)
		if err := report.Claims(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMappingOptimizer compares consecutive, greedy, and
// greedy+refine mappings on SNAP/torus — the paper's proposed advanced
// mapping versus its baseline.
func BenchmarkAblationMappingOptimizer(b *testing.B) {
	app, err := workloads.Lookup("SNAP")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Generate(168)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := topology.TorusConfig(168)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt, err := mapping.Optimize(acc.Wire, topo, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cons, err := mapping.Consecutive(168, topo.Nodes())
			if err != nil {
				b.Fatal(err)
			}
			cc, err := mapping.Cost(acc.Wire, topo, cons)
			if err != nil {
				b.Fatal(err)
			}
			oc, err := mapping.Cost(acc.Wire, topo, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*float64(oc)/float64(cc), "%of-consecutive")
		}
	}
}

// BenchmarkAblationPacketSize sweeps the packetization granularity on
// LULESH-64 to show how the 4 kB assumption shapes packet hops: each
// packet size re-accumulates the trace and runs it on the Table 2 torus
// under the consecutive mapping.
func BenchmarkAblationPacketSize(b *testing.B) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := topology.TorusConfig(64)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	cons, err := mapping.Consecutive(64, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	for _, ps := range []int{1024, 4096, 65536} {
		ps := ps
		b.Run(byteSizeName(ps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc, err := comm.Accumulate(tr, comm.AccumulateOptions{PacketSize: ps})
				if err != nil {
					b.Fatal(err)
				}
				res, err := netmodel.Run(acc.Wire, topo, cons, netmodel.Options{WallTime: tr.Meta.WallTime})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.PacketHops), "torus-pkt-hops")
				}
			}
		})
	}
}

func byteSizeName(ps int) string {
	switch {
	case ps >= 1<<20:
		return "pktMiB"
	case ps >= 1<<10:
		if ps%(1<<10) == 0 {
			return "pkt" + itoa(ps>>10) + "KiB"
		}
	}
	return "pkt" + itoa(ps) + "B"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationRandomMapping quantifies how much worse a random
// placement is than consecutive for a stencil workload — the locality the
// consecutive baseline already captures.
func BenchmarkAblationRandomMapping(b *testing.B) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := topology.TorusConfig(64)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rnd, err := mapping.Random(64, topo.Nodes(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := netmodel.Run(acc.Wire, topo, rnd, netmodel.Options{WallTime: tr.Meta.WallTime})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			cons, err := mapping.Consecutive(64, topo.Nodes())
			if err != nil {
				b.Fatal(err)
			}
			base, err := netmodel.Run(acc.Wire, topo, cons, netmodel.Options{WallTime: tr.Meta.WallTime})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.PacketHops)/float64(base.PacketHops), "x-vs-consecutive")
		}
	}
}

// BenchmarkAblationCollectiveStrategy compares the paper's direct
// collective translation against binomial-tree and ring algorithms on the
// collective-dominated MOCFE workload: the direct translation maximizes
// network usage (the paper's stated intent), trees cut the message count,
// and rings turn collectives into pure neighbor traffic.
func BenchmarkAblationCollectiveStrategy(b *testing.B) {
	for _, s := range []mpi.Strategy{mpi.StrategyDirect, mpi.StrategyTree, mpi.StrategyRing} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := core.AnalyzeApp("CESAR MOCFE", 256, core.Options{Strategy: s})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(a.Torus.PacketHops), "torus-pkt-hops")
					b.ReportMetric(a.Torus.AvgHops, "torus-avg-hops")
				}
			}
		})
	}
}

// BenchmarkAblationTorusWraparound quantifies what the torus wrap-around
// links buy: the same workload on a 3D mesh (identical structure, no
// wraps). For MOCFE's angular-quarter pattern the wrap is what folds the
// ±ranks/4 partners onto z-neighbors.
func BenchmarkAblationTorusWraparound(b *testing.B) {
	app, err := workloads.Lookup("CESAR MOCFE")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, wrap := range []bool{true, false} {
		wrap := wrap
		name := "torus"
		if !wrap {
			name = "mesh"
		}
		b.Run(name, func(b *testing.B) {
			var topo topology.Topology
			var err error
			if wrap {
				topo, err = topology.NewTorus(4, 4, 4)
			} else {
				topo, err = topology.NewMesh(4, 4, 4)
			}
			if err != nil {
				b.Fatal(err)
			}
			mp, err := mapping.Consecutive(64, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{WallTime: tr.Meta.WallTime})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AvgHops, "avg-hops")
				}
			}
		})
	}
}

// BenchmarkExtensionScaleSweep extends the paper's selectivity-saturation
// question beyond its largest trace: AMG generated at 4096 and 13824 ranks
// via power-law extrapolation of Table 1. The paper's saturation reading
// predicts the selectivity keeps creeping up only slowly — the reported
// metrics let each run check that.
func BenchmarkExtensionScaleSweep(b *testing.B) {
	app, err := workloads.Lookup("AMG")
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{1728, 4096, 13824} {
		ranks := ranks
		b.Run(itoa(ranks)+"ranks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := app.GenerateAt(ranks)
				if err != nil {
					b.Fatal(err)
				}
				acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					sel, err := metrics.Selectivity(acc.P2P, 0.9)
					if err != nil {
						b.Fatal(err)
					}
					dist, err := metrics.RankDistance(acc.P2P, 0.9)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(sel, "selectivity")
					b.ReportMetric(dist, "rank-dist")
				}
			}
		})
	}
}

// BenchmarkAblationValiantRouting quantifies the paper's remark that the
// adaptive routing used in practice on dragonflies "often results in even
// longer paths" than the minimal routing the study assumes: the same
// workload under minimal vs Valiant (randomized-intermediate) routing.
func BenchmarkAblationValiantRouting(b *testing.B) {
	app, err := workloads.Lookup("Boxlib CNS")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := app.Generate(256)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := comm.Accumulate(tr, comm.AccumulateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	df, err := topology.NewDragonfly(6, 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	valiant, err := topology.NewValiant(df, 1)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(256, df.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo topology.Topology
	}{{"minimal", df}, {"valiant", valiant}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := netmodel.Run(acc.Wire, tc.topo, mp, netmodel.Options{WallTime: tr.Meta.WallTime})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.AvgHops, "avg-hops")
				}
			}
		})
	}
}

// BenchmarkDesignSearchSmall pins the cost of a small topology design
// search: the milc workload at 64 ranks swept over all four families and
// both default mappings, two configurations per family. This is the
// /v1/design sync path end to end (trace generation, accumulation,
// candidate build/map/model/simulate, ranking).
func BenchmarkDesignSearchSmall(b *testing.B) {
	req := design.Request{
		App:         "milc",
		Ranks:       64,
		Constraints: design.Constraints{MaxCandidates: 2},
	}
	// Shared artifact cache, as the service's design endpoints run it.
	opts := core.Options{Cache: workcache.New(0)}
	for i := 0; i < b.N; i++ {
		sheet, err := design.Search(req, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.DesignSheet(io.Discard, sheet, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(sheet.Rows)), "candidates")
			b.ReportMetric(sheet.Best().Score, "best-score")
		}
	}
}

// BenchmarkCongestionLULESH64 pins the cost of the temporal congestion
// study on one representative cell: LULESH at 64 ranks replayed on its
// three Table 2 topologies under all four routing policies, tolerance
// sweep disabled (the sweep's cost is just repeated simulation). This is
// the event-driven simulator end to end — trace generation, expansion,
// per-policy routing, the global event loop, and the hotspot pass.
func BenchmarkCongestionLULESH64(b *testing.B) {
	refs := []core.WorkloadRef{{App: "LULESH", Ranks: 64}}
	// Shared artifact cache, as the service and harness run it.
	opts := core.Options{Cache: workcache.New(0)}
	for i := 0; i < b.N; i++ {
		rows, err := core.CongestionTable(refs, nil, nil, -1, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := report.Congestion(io.Discard, rows, false); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(rows)), "rows")
			var msgs float64
			for _, r := range rows {
				msgs += float64(r.Messages)
			}
			b.ReportMetric(msgs, "messages")
		}
	}
}
