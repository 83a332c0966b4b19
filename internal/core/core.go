// Package core ties the substrates together into the study's analysis
// pipeline: a trace (generated or loaded) is accumulated into
// communication matrices, the hardware-agnostic MPI-level metrics are
// computed from the point-to-point matrix, and the wire matrix is driven
// over the three topology models to produce the system-level metrics.
// The experiment drivers that regenerate each of the paper's tables and
// figures live in experiments.go.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/mpi"
	"netloc/internal/netmodel"
	"netloc/internal/obs"
	"netloc/internal/parallel"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// Options configures an analysis run.
type Options struct {
	// Coverage is the traffic-share threshold of the 90% rules;
	// metrics.DefaultCoverage when zero.
	Coverage float64
	// Strategy selects the collective-expansion algorithm; the zero
	// value is the paper's direct translation (see mpi.Strategy).
	Strategy mpi.Strategy
	// MaxRanks caps the configuration grid: experiment drivers skip
	// configurations (and topology sizes) above it, and AnalyzeApp,
	// AnalyzeTrace and design searches refuse more ranks (the last two
	// through CheckRanks). Zero means no cap.
	// Used by tests and the analysis service to bound run time and memory.
	MaxRanks int
	// Parallelism caps the worker goroutines one analysis may use for
	// the experiment-grid fan-out, the per-topology model runs, and the
	// per-rank metric loops. Zero means GOMAXPROCS; 1 runs fully
	// sequentially. Results are identical at every setting (all fan-out
	// is index-addressed and reductions stay in index order), so
	// Parallelism never affects cache keys.
	Parallelism int
	// Budget optionally shares one worker-token pool across concurrent
	// analyses: the analysis service passes its request-admission
	// budget so request-level and intra-request parallelism draw from
	// the same pool instead of oversubscribing. Nil means a private
	// budget per top-level analysis call.
	Budget *parallel.Budget
	// Cache optionally shares a workload artifact cache across analyses:
	// generated traces and accumulated matrices are memoized per
	// (app, ranks, accumulate options), so the experiment drivers, the
	// design sweep, and the service re-derive each artifact once instead
	// of once per grid cell. Cached artifacts are shared read-only and
	// results are byte-identical with the cache cold, warm, or nil
	// (disabled), so — like Parallelism — the cache never belongs in a
	// result-cache key. Uploaded traces (AnalyzeTrace) are deliberately
	// never cached: their content is caller-controlled and must not
	// satisfy later registry lookups.
	Cache *workcache.Cache
	// Span optionally attaches an observability span: the pipeline
	// records each stage (generate, accumulate, mpi_metrics, topology,
	// mapping, netmodel, simnet) as a child with its duration and work
	// counts, and experiment drivers wrap each grid cell. Purely
	// observational: results are byte-identical with or without a span
	// (a nil span is a no-op).
	Span *obs.Span
}

// workers resolves the Parallelism knob (0 = GOMAXPROCS).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// WithEngine installs a private worker budget when none was supplied,
// so the nested fan-out levels of one analysis (grid × topologies ×
// per-rank loops) share a single token pool. The analysis body, the grid
// drivers (through eachCell) and package design call it; repeated
// application is a no-op.
func (o Options) WithEngine() Options {
	if o.Budget == nil && o.workers() > 1 {
		// The calling goroutine holds no token, so the extras' budget
		// is one less than the worker cap.
		o.Budget = parallel.NewBudget(o.workers() - 1)
	}
	return o
}

// Runner returns the scheduler one fan-out level should use: sequential
// at one worker or without a budget, else one sharing the budget.
func (o Options) Runner() parallel.Runner {
	if o.workers() <= 1 || o.Budget == nil {
		return parallel.Seq()
	}
	return parallel.Shared(o.Budget, o.workers())
}

// engine returns the metrics engine bound to the options' runner.
func (o Options) engine() metrics.Engine {
	return metrics.Engine{Run: o.Runner()}
}

// withinCap reports whether a rank count passes the MaxRanks cap.
func (o Options) withinCap(ranks int) bool {
	return o.MaxRanks == 0 || ranks <= o.MaxRanks
}

func (o Options) coverage() float64 {
	if o.Coverage == 0 {
		return metrics.DefaultCoverage
	}
	return o.Coverage
}

// TopoResult holds the system-level metrics of one topology (one
// topology-block of a Table 3 row).
type TopoResult struct {
	Config     topology.Config
	PacketHops uint64
	Packets    uint64
	AvgHops    float64
	// UtilizationPct is meaningful only when UtilizationValid is set;
	// a run without a wall time (eq. 5's denominator) reports the
	// paper's N/A instead of a misleading 0.
	UtilizationPct   float64
	UtilizationValid bool
	UsedLinks        int
	// GlobalMsgShare is the fraction of messages crossing a global link
	// (meaningful for the dragonfly and the fat-tree top stage).
	GlobalMsgShare float64
}

// Analysis is the full result for one workload configuration: one row of
// Table 1 plus one row of Table 3.
type Analysis struct {
	App      string
	Ranks    int
	WallTime float64

	// Table 1 accounting (caller-side volumes).
	VolMB    float64
	P2PPct   float64
	CollPct  float64
	RateMBps float64

	// MPI-level metrics (Table 3, left block). HasP2P is false for
	// purely collective workloads, for which the paper reports N/A.
	HasP2P       bool
	Peers        int
	RankDistance float64
	RankLocality float64 // percent
	Selectivity  float64

	// System-level metrics per topology (Table 3, right blocks); nil
	// for a family AnalyzeAppOn did not select.
	Torus     *TopoResult
	FatTree   *TopoResult
	Dragonfly *TopoResult

	// Extreme-scale families beyond the paper's study, populated only
	// when AnalyzeAppOn selects them explicitly (omitted from JSON
	// otherwise, so the paper-table encodings stay byte-stable).
	SlimFly   *TopoResult `json:",omitempty"`
	Jellyfish *TopoResult `json:",omitempty"`
	HyperX    *TopoResult `json:",omitempty"`
}

// AnalyzeTrace runs the full pipeline on a materialized trace. The trace
// is treated as caller-supplied: it is never read from or written to
// Options.Cache, so an uploaded trace claiming a registry app's name
// cannot poison later registry analyses. Its declared rank count is
// checked (see CheckRanks) before anything is sized by it.
func AnalyzeTrace(t *trace.Trace, opts Options) (*Analysis, error) {
	if err := opts.CheckRanks(t.Meta.Ranks); err != nil {
		return nil, err
	}
	acc, err := Accumulate(t, opts)
	if err != nil {
		return nil, err
	}
	return analyzeOn(acc, PaperKinds(), MappingConsecutive, opts)
}

// CheckRanks refuses a rank count before anything is sized by it: the
// matrices take memory in proportion to it, so a few bytes declaring
// millions of ranks would otherwise allocate hundreds of megabytes before
// failing. The count must be within MaxRanks when that is set, and one
// topology.Configs can size. Besides a trace's declared ranks, it checks
// a design search's node count and the service's topology requests, so
// its errors name the count alone.
func (o Options) CheckRanks(ranks int) error {
	if !o.withinCap(ranks) {
		return fmt.Errorf("core: %d ranks, outside [1, %d] (MaxRanks)", ranks, o.MaxRanks)
	}
	if _, _, _, err := topology.Configs(ranks); err != nil {
		return fmt.Errorf("core: %d ranks: %w", ranks, err)
	}
	return nil
}

// Accumulate is the pipeline's accumulate stage: it expands and
// packetizes a trace into the communication matrices under an
// "accumulate" span labelled App/Ranks that counts the events. The span
// ends on every path (a failing expansion must not leave an unterminated
// span in the debug ring).
func Accumulate(t *trace.Trace, opts Options) (*comm.Accumulated, error) {
	sp := opts.Span.Start("accumulate")
	defer sp.End()
	// The workload label rides along as span metadata so exported traces
	// (obs.WriteChromeTrace) name the cell each stage worked on.
	sp.SetLabel(fmt.Sprintf("%s/%d", t.Meta.App, t.Meta.Ranks))
	sp.Add("events", int64(len(t.Events)))
	return comm.Accumulate(t, comm.AccumulateOptions{Strategy: opts.Strategy})
}

// Matrices is the pipeline's cached accumulate stage: the matrices of the
// trace key addresses, under opts.Strategy (the one option that changes
// matrix content), from the artifact cache; on a miss, Accumulate of the
// trace gen returns. Registry analyses and design searches share it.
func Matrices(key workcache.TraceKey, gen func() (*trace.Trace, error), opts Options) (*comm.Accumulated, error) {
	k := workcache.AccKey{Source: key.Source, App: key.App, Ranks: key.Ranks, Strategy: opts.Strategy}
	return opts.Cache.Accumulated(k, func() (*comm.Accumulated, error) {
		t, err := gen()
		if err != nil {
			return nil, err
		}
		return Accumulate(t, opts)
	})
}

// volumeColumns is Table 1's volume accounting from the caller-side
// point-to-point and collective bytes: the volume in MB (10^6 B), each
// kind's share in percent (zero without traffic) and the rate over the
// wall time (zero without one).
func volumeColumns(p2p, coll uint64, wallTime float64) (volMB, p2pPct, collPct, rateMBps float64) {
	total := float64(p2p + coll)
	volMB = total / 1e6
	if total > 0 {
		p2pPct = 100 * float64(p2p) / total
		collPct = 100 - p2pPct
	}
	if wallTime > 0 {
		rateMBps = volMB / wallTime
	}
	return volMB, p2pPct, collPct, rateMBps
}

// AnalyzeAccumulated runs the pipeline on pre-accumulated matrices.
func AnalyzeAccumulated(acc *comm.Accumulated, opts Options) (*Analysis, error) {
	return analyzeOn(acc, PaperKinds(), MappingConsecutive, opts)
}

// PaperKinds lists the paper's three topology families, in table order.
func PaperKinds() []string { return []string{"torus", "fattree", "dragonfly"} }

// analyzeOn is the one analysis body: Table 1's volume columns, the
// MPI-level metrics under an "mpi_metrics" span, and the model stage of
// each named topology kind under the named mapping, every kind sized
// before any model runs and the kinds fanned out over the worker budget.
func analyzeOn(acc *comm.Accumulated, kinds []string, mappingName string, opts Options) (*Analysis, error) {
	opts = opts.WithEngine()
	q := opts.coverage()
	a := &Analysis{
		App:      acc.Meta.App,
		Ranks:    acc.Meta.Ranks,
		WallTime: acc.Meta.WallTime,
	}
	a.VolMB, a.P2PPct, a.CollPct, a.RateMBps = volumeColumns(acc.CallerP2PBytes, acc.CallerCollBytes, acc.Meta.WallTime)

	if acc.P2P.TotalBytes() > 0 {
		a.HasP2P = true
		sp := opts.Span.Start("mpi_metrics")
		sp.SetLabel(fmt.Sprintf("%s/%d", acc.Meta.App, acc.Meta.Ranks))
		a.Peers, _ = metrics.Peers(acc.P2P)
		sp.Add("peers", int64(a.Peers))
		eng := opts.engine()
		var err error
		a.RankDistance, err = eng.RankDistance(acc.P2P, q)
		// metrics.RankLocality's rule, without its second distance pass.
		a.RankLocality = 100 / max(a.RankDistance, 1)
		if err == nil {
			a.Selectivity, err = eng.Selectivity(acc.P2P, q)
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}

	cfgs := make([]topology.Config, len(kinds))
	for i, kind := range kinds {
		var err error
		if cfgs[i], err = ConfigFor(kind, a.Ranks); err != nil {
			return nil, err
		}
	}
	results, err := runGrid(opts.Runner(), len(cfgs), func(i int) (*TopoResult, error) {
		topo, err := Topology(cfgs[i], opts)
		var res *TopoResult
		if err == nil {
			res, _, err = Model(acc, cfgs[i], topo, mappingName, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s%s: %w", a.App, cfgs[i].Kind, cfgs[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	blocks := map[string]**TopoResult{
		"torus": &a.Torus, "fattree": &a.FatTree, "dragonfly": &a.Dragonfly,
		"slimfly": &a.SlimFly, "jellyfish": &a.Jellyfish, "hyperx": &a.HyperX,
	}
	for i, kind := range kinds {
		*blocks[kind] = results[i]
	}
	return a, nil
}

// runGrid evaluates fn for every index of an n-item grid on the given
// runner. Result i always lands at index i (table order is preserved),
// and when several items fail the lowest-index error is returned — the
// same one the sequential loop would have reported first.
func runGrid[T any](run parallel.Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	if n == 0 {
		return nil, nil // keep the sequential loops' nil result (JSON null)
	}
	out := make([]T, n)
	err := run.ForEachErr(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Named rank→node mapping strategies accepted by BuildMapping and
// AnalyzeAppOn. MappingConsecutive is the paper's default.
const (
	MappingConsecutive = "consecutive"
	MappingRandom      = "random"
	MappingGreedy      = "greedy"
	MappingRefined     = "refined"
)

// MappingNames lists the known mapping strategies in preference order.
func MappingNames() []string {
	return []string{MappingConsecutive, MappingRandom, MappingGreedy, MappingRefined}
}

// BuildMapping constructs a named rank→node mapping for a topology. The
// empty name means the paper's consecutive default; "random" uses a fixed
// seed so results stay deterministic.
func BuildMapping(name string, acc *comm.Accumulated, topo topology.Topology) (*mapping.Mapping, error) {
	switch name {
	case "", MappingConsecutive:
		return mapping.Consecutive(acc.Meta.Ranks, topo.Nodes())
	case MappingRandom:
		return mapping.Random(acc.Meta.Ranks, topo.Nodes(), 1)
	case MappingGreedy:
		return mapping.Greedy(acc.Wire, topo)
	case MappingRefined:
		return mapping.Optimize(acc.Wire, topo, 2)
	}
	return nil, fmt.Errorf("core: unknown mapping %q (known: %v)", name, MappingNames())
}

// AnalysisKinds lists the topology kinds AnalyzeAppOn accepts: the
// paper's three families plus the extreme-scale additions.
func AnalysisKinds() []string { return append(PaperKinds(), "slimfly", "jellyfish", "hyperx") }

// ConfigFor returns the sized configuration of one topology kind for a
// rank count: the Table 2 entry for the paper's families, the ladder
// sizing for the extreme-scale ones.
func ConfigFor(kind string, ranks int) (topology.Config, error) {
	switch kind {
	case "torus":
		return topology.TorusConfig(ranks)
	case "fattree":
		return topology.FatTreeConfig(ranks)
	case "dragonfly":
		return topology.DragonflyConfig(ranks)
	case "slimfly":
		return topology.SlimFlyConfig(ranks)
	case "jellyfish":
		return topology.JellyfishConfig(ranks)
	case "hyperx":
		return topology.HyperXConfig(ranks)
	}
	return topology.Config{}, fmt.Errorf("core: unknown topology %q (known: %v)", kind, AnalysisKinds())
}

// Topology is the pipeline's topology stage: the built topology of cfg
// from the artifact cache, built on a miss under a "topology" span
// labelled with the configuration.
func Topology(cfg topology.Config, opts Options) (topology.Topology, error) {
	return opts.Cache.Topology(cfg, func() (topology.Topology, error) {
		sp := opts.Span.Start("topology")
		defer sp.End()
		sp.SetLabel(cfg.Kind + cfg.String())
		return cfg.Build()
	})
}

// Model is the pipeline's model stage on the built topology of cfg: it
// maps the ranks under the named mapping (the "mapping" span) and drives
// the wire matrix through the static network model (the "netmodel"
// span). It returns the topology block and the mapping it ran under.
func Model(acc *comm.Accumulated, cfg topology.Config, topo topology.Topology, mappingName string, opts Options) (*TopoResult, *mapping.Mapping, error) {
	msp := opts.Span.Start("mapping")
	msp.SetLabel(mappingName)
	mp, err := BuildMapping(mappingName, acc, topo)
	msp.End()
	if err != nil {
		return nil, nil, err
	}
	nsp := opts.Span.Start("netmodel")
	defer nsp.End()
	nsp.SetLabel(cfg.Kind)
	res, err := netmodel.Run(acc.Wire, topo, mp, netmodel.Options{WallTime: acc.Meta.WallTime, TrackLinks: true})
	if err != nil {
		return nil, nil, err
	}
	nsp.Add("packets", int64(res.Packets))
	nsp.Add("packet_hops", int64(res.PacketHops))
	nsp.Add("used_links", int64(res.UsedLinks))
	nsp.Add("max_link_bytes", int64(res.MaxLinkBytes))
	return &TopoResult{
		Config:           cfg,
		PacketHops:       res.PacketHops,
		Packets:          res.Packets,
		AvgHops:          res.AvgHops,
		UtilizationPct:   res.UtilizationPct,
		UtilizationValid: res.UtilizationValid,
		UsedLinks:        res.UsedLinks,
		GlobalMsgShare:   res.GlobalMsgShare,
	}, mp, nil
}

// AnalyzeAppOn analyzes one registry workload configuration on a
// selected topology kind (see AnalysisKinds; "" / "all" means the paper's
// three families) under a named rank→node mapping (see MappingNames; ""
// means consecutive). It backs the service's /v1/analyze endpoint. The
// returned Analysis carries only the selected topology block(s). With
// Options.Cache attached the trace and the matrices are memoized
// (Matrices), and a rank count above Options.MaxRanks is refused before
// anything is generated.
func AnalyzeAppOn(name string, ranks int, topoKind, mappingName string, opts Options) (*Analysis, error) {
	acc, err := appMatrices(name, ranks, opts)
	if err != nil {
		return nil, err
	}
	kinds := PaperKinds()
	if topoKind != "" && topoKind != "all" {
		kinds = []string{topoKind}
	}
	return analyzeOn(acc, kinds, mappingName, opts)
}

// AnalyzeApp analyzes one registry workload configuration on the paper's
// three families under the consecutive mapping: one row of Table 3.
func AnalyzeApp(name string, ranks int, opts Options) (*Analysis, error) {
	return AnalyzeAppOn(name, ranks, "all", MappingConsecutive, opts)
}

// appMatrices is the cached accumulate stage (Matrices) of a registry app
// at one of its configured scales, refusing a rank count above
// Options.MaxRanks before anything is generated.
func appMatrices(name string, ranks int, opts Options) (*comm.Accumulated, error) {
	app, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	if !opts.withinCap(ranks) {
		return nil, fmt.Errorf("core: %s at %d ranks exceeds the rank cap %d (MaxRanks)", app.Name, ranks, opts.MaxRanks)
	}
	return Matrices(appKey(app, ranks), func() (*trace.Trace, error) { return generateTrace(app, ranks, opts) }, opts)
}

// appKey addresses the trace of a registry app at one of its configured
// scales.
func appKey(app *workloads.App, ranks int) workcache.TraceKey {
	return workcache.TraceKey{Source: workcache.SourceGenerate, App: app.Name, Ranks: ranks}
}

// Generate is the pipeline's generate stage: the trace of key from the
// artifact cache, made by gen on a miss under a "generate" span labelled
// App/Ranks that counts the events. The span ends on every path,
// including a failing generator.
func Generate(key workcache.TraceKey, gen func() (*trace.Trace, error), opts Options) (*trace.Trace, error) {
	return opts.Cache.Trace(key, func() (*trace.Trace, error) {
		sp := opts.Span.Start("generate")
		defer sp.End()
		sp.SetLabel(fmt.Sprintf("%s/%d", key.App, key.Ranks))
		t, err := gen()
		if err != nil {
			return nil, err
		}
		sp.Add("events", int64(len(t.Events)))
		return t, nil
	})
}

// generateTrace is Generate of a registry app at one of its configured
// scales.
func generateTrace(app *workloads.App, ranks int, opts Options) (*trace.Trace, error) {
	return Generate(appKey(app, ranks), func() (*trace.Trace, error) { return app.Generate(ranks) }, opts)
}

// ErrNoSuchExperiment is returned by RunExperiment for unknown IDs.
var ErrNoSuchExperiment = errors.New("core: unknown experiment")
