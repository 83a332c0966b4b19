package core

import (
	"fmt"

	"netloc/internal/metrics"
	"netloc/internal/netmodel"
	"netloc/internal/topology"
	"netloc/internal/workloads"
)

// WorkloadRef names one (application, rank count) configuration.
type WorkloadRef struct {
	App   string
	Ranks int
}

// AllConfigurations lists every configuration of the study in table order
// (alphabetical app, ascending ranks).
func AllConfigurations() []WorkloadRef {
	var out []WorkloadRef
	for _, a := range workloads.All() {
		for _, r := range a.RankCounts() {
			out = append(out, WorkloadRef{App: a.Name, Ranks: r})
		}
	}
	return out
}

// eachCell is the one fan-out of the experiment grids. It keeps the
// configurations within Options.MaxRanks, runs fn on each over the
// worker budget under a "cell" span labelled App/Ranks, and hands fn the
// options with that span attached. Results keep ref order and the
// lowest-index error wins (see runGrid).
func eachCell[T any](refs []WorkloadRef, opts Options, fn func(ref WorkloadRef, o Options) (T, error)) ([]T, error) {
	opts = opts.WithEngine()
	var capped []WorkloadRef
	for _, ref := range refs {
		if opts.withinCap(ref.Ranks) {
			capped = append(capped, ref)
		}
	}
	return runGrid(opts.Runner(), len(capped), func(i int) (T, error) {
		ref := capped[i]
		cell := opts.Span.Start("cell")
		cell.SetLabel(fmt.Sprintf("%s/%d", ref.App, ref.Ranks))
		defer cell.End()
		o := opts
		o.Span = cell
		return fn(ref, o)
	})
}

// Table1Row is one row of the paper's Table 1 (workload overview).
type Table1Row struct {
	App      string
	Star     bool
	Ranks    int
	TimeS    float64
	VolMB    float64
	P2PPct   float64
	CollPct  float64
	RateMBps float64
}

// Table1 regenerates the workload-overview table by generating and
// accounting every synthetic trace. Options.MaxRanks caps the grid;
// Options.Parallelism fans the configurations out over the worker
// budget (rows keep table order).
func Table1(opts Options) ([]Table1Row, error) {
	return eachCell(AllConfigurations(), opts, func(ref WorkloadRef, o Options) (Table1Row, error) {
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return Table1Row{}, err
		}
		t, err := generateTrace(app, ref.Ranks, o)
		if err != nil {
			return Table1Row{}, err
		}
		row := Table1Row{App: app.Name, Star: app.Star, Ranks: ref.Ranks, TimeS: t.Meta.WallTime}
		p2p, coll := t.TotalBytes()
		row.VolMB, row.P2PPct, row.CollPct, row.RateMBps = volumeColumns(p2p, coll, t.Meta.WallTime)
		return row, nil
	})
}

// Table2Row is one row of the topology-configuration table.
type Table2Row struct {
	Size      int
	Torus     topology.Config
	FatTree   topology.Config
	Dragonfly topology.Config
}

// Table2 regenerates the topology configuration table for the paper's
// size ladder. Options.MaxRanks caps the ladder.
func Table2(opts Options) ([]Table2Row, error) {
	var rows []Table2Row
	for _, size := range topology.PaperSizes() {
		if !opts.withinCap(size) {
			continue
		}
		tor, ft, df, err := topology.Configs(size)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Size: size, Torus: tor, FatTree: ft, Dragonfly: df})
	}
	return rows, nil
}

// Table3 runs the full characterization (MPI-level metrics plus all three
// topologies) for every configuration. The grid fans out over the
// worker budget; rows stay in table order regardless of Parallelism.
func Table3(opts Options) ([]*Analysis, error) {
	return eachCell(AllConfigurations(), opts, func(ref WorkloadRef, o Options) (*Analysis, error) {
		a, err := AnalyzeApp(ref.App, ref.Ranks, o)
		if err != nil {
			return nil, fmt.Errorf("core: %s/%d: %w", ref.App, ref.Ranks, err)
		}
		return a, nil
	})
}

// Table4Workloads lists the configurations of the dimensionality study.
var Table4Workloads = []WorkloadRef{
	{App: "AMG", Ranks: 216},
	{App: "AMG", Ranks: 1728},
	{App: "Boxlib CNS", Ranks: 64},
	{App: "Boxlib CNS", Ranks: 256},
	{App: "Boxlib CNS", Ranks: 1024},
	{App: "LULESH", Ranks: 64},
	{App: "LULESH", Ranks: 512},
	{App: "MultiGrid_C", Ranks: 125},
	{App: "MultiGrid_C", Ranks: 1000},
	{App: "PARTISN", Ranks: 168},
}

// Table4Row is one row of the dimensionality table: rank locality (in
// percent) under the best 1D, 2D, and 3D foldings.
type Table4Row struct {
	App    string
	Ranks  int
	Loc1D  float64
	Loc2D  float64
	Loc3D  float64
	Grid2D []int
	Grid3D []int
}

// Table4 regenerates the dimensionality study from each configuration's
// point-to-point matrix. Configurations fan out over the worker budget;
// within one configuration the candidate-grid sweep of each folding is
// parallelized too.
func Table4(opts Options) ([]Table4Row, error) {
	q := opts.coverage()
	return eachCell(Table4Workloads, opts, func(ref WorkloadRef, o Options) (Table4Row, error) {
		acc, err := appMatrices(ref.App, ref.Ranks, o)
		if err != nil {
			return Table4Row{}, err
		}
		if acc.P2P.TotalBytes() == 0 {
			return Table4Row{}, fmt.Errorf("core: %s/%d has no p2p traffic for Table 4", ref.App, ref.Ranks)
		}
		eng := o.engine()
		row := Table4Row{App: ref.App, Ranks: ref.Ranks}
		r1, err := eng.DimLocality(acc.P2P, 1, q)
		if err != nil {
			return Table4Row{}, err
		}
		r2, err := eng.DimLocality(acc.P2P, 2, q)
		if err != nil {
			return Table4Row{}, err
		}
		r3, err := eng.DimLocality(acc.P2P, 3, q)
		if err != nil {
			return Table4Row{}, err
		}
		row.Loc1D, row.Loc2D, row.Loc3D = r1.LocalityPct, r2.LocalityPct, r3.LocalityPct
		row.Grid2D, row.Grid3D = r2.Grid, r3.Grid
		return row, nil
	})
}

// Figure1 returns the sorted partner-volume curve of one rank (the paper
// uses LULESH rank 0).
func Figure1(app string, ranks, rank int, opts Options) ([]float64, error) {
	acc, err := appMatrices(app, ranks, opts)
	if err != nil {
		return nil, err
	}
	return metrics.PartnerCurve(acc.P2P, rank)
}

// Figure3Curve is the mean cumulative traffic-share curve of one workload.
type Figure3Curve struct {
	App   string
	Ranks int
	// Shares[i] is the mean share of a rank's volume covered by its i+1
	// largest partners.
	Shares []float64
	// Selectivity is where the curve crosses the coverage threshold.
	Selectivity float64
}

// Figure3 computes the selectivity trend curves for all workloads at their
// largest configuration (the paper plots all workloads in one figure).
// Workloads fan out over the worker budget; pure-collective workloads
// are filtered in table order after the parallel phase.
//
// A workload whose smallest configuration exceeds Options.MaxRanks is
// omitted from the figure (the paper's figure simply has no curve for a
// scale the grid does not reach); when the cap excludes every workload
// the call fails with an error listing the smallest admissible cap
// instead of returning a silently empty figure.
func Figure3(opts Options) ([]Figure3Curve, error) {
	var refs []WorkloadRef
	smallest := 0
	for _, app := range workloads.All() {
		ranks := 0
		for _, r := range app.RankCounts() {
			if opts.withinCap(r) {
				ranks = r // largest configuration under the cap
			}
		}
		if min := app.RankCounts()[0]; smallest == 0 || min < smallest {
			smallest = min
		}
		if ranks > 0 {
			refs = append(refs, WorkloadRef{App: app.Name, Ranks: ranks})
		}
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: MaxRanks %d excludes every workload configuration (smallest configured scale: %d ranks)",
			opts.MaxRanks, smallest)
	}
	return curves(refs, opts)
}

// Figure4 computes the selectivity-scaling curves of one application
// across all its configurations (the paper shows AMG). A MaxRanks cap
// below the app's smallest configuration is an error listing the
// configured scales — the caller asked for this specific app, so an
// empty figure would silently hide the mismatch.
func Figure4(appName string, opts Options) ([]Figure3Curve, error) {
	app, err := workloads.Lookup(appName)
	if err != nil {
		return nil, err
	}
	if !opts.withinCap(app.RankCounts()[0]) {
		return nil, fmt.Errorf("core: MaxRanks %d excludes every %s configuration (configured: %v)",
			opts.MaxRanks, app.Name, app.RankCounts())
	}
	var refs []WorkloadRef
	for _, ranks := range app.RankCounts() {
		refs = append(refs, WorkloadRef{App: appName, Ranks: ranks})
	}
	return curves(refs, opts)
}

// curves is the cell of Figures 3 and 4: the mean cumulative curve and
// the selectivity of each configuration. Pure-collective workloads, which
// the paper's figures omit, are dropped in table order after the fan-out.
func curves(refs []WorkloadRef, opts Options) ([]Figure3Curve, error) {
	q := opts.coverage()
	cs, err := eachCell(refs, opts, func(ref WorkloadRef, o Options) (*Figure3Curve, error) {
		acc, err := appMatrices(ref.App, ref.Ranks, o)
		if err != nil || acc.P2P.TotalBytes() == 0 {
			return nil, err
		}
		shares, err := metrics.CumulativeCurve(acc.P2P)
		if err != nil {
			return nil, err
		}
		sel, err := o.engine().Selectivity(acc.P2P, q)
		if err != nil {
			return nil, err
		}
		return &Figure3Curve{App: ref.App, Ranks: ref.Ranks, Shares: shares, Selectivity: sel}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Figure3Curve
	for _, c := range cs {
		if c != nil {
			out = append(out, *c)
		}
	}
	return out, nil
}

// Figure5CoreCounts is the cores-per-socket sweep of the multi-core study.
var Figure5CoreCounts = []int{1, 2, 4, 8, 16, 32, 48}

// Figure5Series is the relative inter-node traffic of one workload.
type Figure5Series struct {
	App    string
	Ranks  int
	Cores  []int
	Shares []float64 // inter-node volume relative to 1 rank/node
}

// Figure5 runs the multi-core scaling study over every configuration with
// at least minRanks ranks (the paper uses 512: "smaller configurations are
// not considered since a problem size in the same magnitude as the number
// of cores would sophisticate scaling effects"). Traffic includes both
// point-to-point and collective messages.
func Figure5(minRanks int, opts Options) ([]Figure5Series, error) {
	var refs []WorkloadRef
	for _, ref := range AllConfigurations() {
		if ref.Ranks >= minRanks {
			refs = append(refs, ref)
		}
	}
	return eachCell(refs, opts, func(ref WorkloadRef, o Options) (Figure5Series, error) {
		acc, err := appMatrices(ref.App, ref.Ranks, o)
		if err != nil {
			return Figure5Series{}, err
		}
		shares, err := netmodel.MultiCoreSeries(acc.Wire, Figure5CoreCounts)
		if err != nil {
			return Figure5Series{}, err
		}
		return Figure5Series{
			App: ref.App, Ranks: ref.Ranks,
			Cores: append([]int(nil), Figure5CoreCounts...), Shares: shares,
		}, nil
	})
}

// Claims summarizes the paper's headline findings over the full grid.
type Claims struct {
	// Configurations analyzed (with p2p traffic for the selectivity
	// claim; all for utilization).
	P2PConfigs   int
	TotalConfigs int
	// SelectivityLE10Pct is the share of p2p configurations whose
	// selectivity is at most 10 (paper: ~89%).
	SelectivityLE10Pct float64
	// UtilizationLT1Pct is the share of (configuration, topology) cells
	// with utilization below 1% (paper: ~93%).
	UtilizationLT1Pct float64
	// DragonflyGlobalSharePct is the average share of messages crossing
	// a dragonfly global link (paper: ~95%).
	DragonflyGlobalSharePct float64
	// TorusWinsSmall / FatTreeWinsLarge count configurations where each
	// topology has the lowest average hops, split at 256 ranks (paper:
	// torus favorable below, fat tree above).
	TorusWinsSmall   int
	SmallConfigs     int
	FatTreeWinsLarge int
	LargeConfigs     int
	// MaxSelectivity is the largest mean selectivity seen (paper: 13 for
	// AMR at 1728 ranks, excluding the CNS outlier).
	MaxSelectivity    float64
	MaxSelectivityApp string
}

// SummarizeClaims derives the headline numbers from Table 3 rows.
func SummarizeClaims(rows []*Analysis) Claims {
	var c Claims
	var globalShares []float64
	utilCells, utilLow := 0, 0
	for _, a := range rows {
		c.TotalConfigs++
		if a.HasP2P {
			c.P2PConfigs++
			if a.Selectivity <= 10 {
				c.SelectivityLE10Pct++
			}
			if a.Selectivity > c.MaxSelectivity {
				c.MaxSelectivity = a.Selectivity
				c.MaxSelectivityApp = fmt.Sprintf("%s (%d ranks)", a.App, a.Ranks)
			}
		}
		for _, tr := range []*TopoResult{a.Torus, a.FatTree, a.Dragonfly} {
			if tr == nil {
				continue
			}
			utilCells++
			if tr.UtilizationPct < 1 {
				utilLow++
			}
		}
		if a.Dragonfly != nil {
			globalShares = append(globalShares, a.Dragonfly.GlobalMsgShare)
		}
		if a.Torus != nil && a.FatTree != nil && a.Dragonfly != nil {
			minHops := a.Torus.AvgHops
			winner := "torus"
			if a.FatTree.AvgHops < minHops {
				minHops = a.FatTree.AvgHops
				winner = "fattree"
			}
			if a.Dragonfly.AvgHops < minHops {
				winner = "dragonfly"
			}
			if a.Ranks < 256 {
				c.SmallConfigs++
				if winner == "torus" {
					c.TorusWinsSmall++
				}
			} else {
				c.LargeConfigs++
				if winner == "fattree" {
					c.FatTreeWinsLarge++
				}
			}
		}
	}
	if c.P2PConfigs > 0 {
		c.SelectivityLE10Pct = 100 * c.SelectivityLE10Pct / float64(c.P2PConfigs)
	}
	if utilCells > 0 {
		c.UtilizationLT1Pct = 100 * float64(utilLow) / float64(utilCells)
	}
	if len(globalShares) > 0 {
		var s float64
		for _, g := range globalShares {
			s += g
		}
		c.DragonflyGlobalSharePct = 100 * s / float64(len(globalShares))
	}
	return c
}
