// Package harness dispatches the named experiments of the study —
// table1..table4, fig1, fig3..fig5, claims — to the core drivers and
// report renderers. It backs cmd/locality and the analysis service
// (internal/service) and keeps the experiment plumbing testable.
//
// Every experiment is split into a collect step, which returns the typed
// row slice (JSON-encodable as-is), and a render step, which lays the
// text/CSV formatting over those rows. Collect is the programmatic
// surface the service caches; Run composes both for the CLIs.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"netloc/internal/core"
	"netloc/internal/metrics"
	"netloc/internal/obs"
	"netloc/internal/report"
	"netloc/internal/trace"
	"netloc/internal/workcache"
)

// Params selects an experiment and its inputs.
type Params struct {
	// Experiment is one of Experiments().
	Experiment string
	// App selects the workload for fig1 (default LULESH) and fig4
	// (default AMG).
	App string
	// Ranks is the configuration for fig1 (default 64).
	Ranks int
	// Rank is the source rank for fig1.
	Rank int
	// MinRanks is the cutoff for fig5 (default 512, the paper's choice).
	MinRanks int
	// CSV selects CSV output instead of aligned text.
	CSV bool
	// JSON selects structured JSON output (the Result envelope) instead
	// of text or CSV. It wins over CSV.
	JSON bool
	// Runtime includes a "runtime" block — the pipeline's stage-span
	// tree with durations and work counts — in JSON results. Off by
	// default so JSON output stays byte-identical run to run.
	Runtime bool
	// Analysis options (coverage, packet size, bandwidth, rank cap).
	Options core.Options
}

// Result is the typed outcome of one experiment: the name it ran under
// and the row slice (or series/summary struct) the experiment produced.
// It is the unit the analysis service computes, caches, and serves, and
// what the -json CLI flags emit via report.JSON.
type Result struct {
	Experiment string `json:"experiment"`
	Rows       any    `json:"rows"`
	// Runtime is the stage-span tree of the run that produced the rows,
	// present only when Params.Runtime was set (timings are inherently
	// nondeterministic, so the block is opt-in).
	Runtime *obs.SpanData `json:"runtime,omitempty"`
}

// Curve is the typed result of fig1: one labeled partner-volume series.
type Curve struct {
	Label  string    `json:"label"`
	Shares []float64 `json:"shares"`
}

type runner struct {
	description string
	// collect computes the typed rows; render lays text/CSV over them.
	collect func(p Params) (any, error)
	render  func(w io.Writer, rows any, p Params) error
}

var experiments = map[string]runner{
	"table1": {
		description: "workload overview: ranks, time, volume, p2p/coll split, throughput",
		collect: func(p Params) (any, error) {
			return core.Table1(p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Table1(w, rows.([]core.Table1Row), p.CSV)
		},
	},
	"table2": {
		description: "topology configurations at every scale",
		collect: func(p Params) (any, error) {
			return core.Table2(p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Table2(w, rows.([]core.Table2Row), p.CSV)
		},
	},
	"table3": {
		description: "main characterization: MPI-level metrics and all three topologies",
		collect: func(p Params) (any, error) {
			return core.Table3(p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Table3(w, rows.([]*core.Analysis), p.CSV)
		},
	},
	"table4": {
		description: "rank locality under 1D/2D/3D foldings",
		collect: func(p Params) (any, error) {
			return core.Table4(p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Table4(w, rows.([]core.Table4Row), p.CSV)
		},
	},
	"fig1": {
		description: "sorted partner-volume curve of one rank (default LULESH/64 rank 0)",
		collect: func(p Params) (any, error) {
			app := p.App
			if app == "" {
				app = "LULESH"
			}
			ranks := p.Ranks
			if ranks == 0 {
				ranks = 64
			}
			shares, err := core.Figure1(app, ranks, p.Rank, p.Options)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s/%d rank %d bytes", app, ranks, p.Rank)
			return Curve{Label: label, Shares: shares}, nil
		},
		render: func(w io.Writer, rows any, p Params) error {
			c := rows.(Curve)
			return report.Curve(w, c.Label, c.Shares, p.CSV)
		},
	},
	"fig3": {
		description: "cumulative selectivity trends for all workloads",
		collect: func(p Params) (any, error) {
			return core.Figure3(p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Figure3(w, rows.([]core.Figure3Curve), p.CSV)
		},
	},
	"fig4": {
		description: "selectivity scaling across one app's configurations (default AMG)",
		collect: func(p Params) (any, error) {
			app := p.App
			if app == "" {
				app = "AMG"
			}
			return core.Figure4(app, p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Figure3(w, rows.([]core.Figure3Curve), p.CSV)
		},
	},
	"fig5": {
		description: "multi-core inter-node traffic scaling",
		collect: func(p Params) (any, error) {
			minRanks := p.MinRanks
			if minRanks == 0 {
				minRanks = 512
			}
			return core.Figure5(minRanks, p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Figure5(w, rows.([]core.Figure5Series), p.CSV)
		},
	},
	"sim": {
		description: "EXTENSION: flow-level simulation (latency, queueing, slackness) per topology",
		collect: func(p Params) (any, error) {
			return core.SimTable(nil, p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.SimTable(w, rows.([]core.SimRow), p.CSV)
		},
	},
	"congestion": {
		description: "EXTENSION: temporal congestion study (routing policies, queueing, hotspots, latency tolerance)",
		collect: func(p Params) (any, error) {
			return core.CongestionTable(nil, nil, nil, 0, p.Options)
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Congestion(w, rows.([]core.CongestionRow), p.CSV)
		},
	},
	"score": {
		description: "EXTENSION: quantitative reproduction scorecard vs the paper's anchor values",
		collect: func(p Params) (any, error) {
			rows, err := core.Table3(p.Options)
			if err != nil {
				return nil, err
			}
			return core.Scorecard(rows), nil
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Scorecard(w, rows.([]core.ScoreRow), p.CSV)
		},
	},
	"claims": {
		description: "headline findings over the full configuration grid",
		collect: func(p Params) (any, error) {
			rows, err := core.Table3(p.Options)
			if err != nil {
				return nil, err
			}
			return core.SummarizeClaims(rows), nil
		},
		render: func(w io.Writer, rows any, p Params) error {
			return report.Claims(w, rows.(core.Claims))
		},
	},
}

// Experiments returns the known experiment names in alphabetical order.
func Experiments() []string {
	out := make([]string, 0, len(experiments))
	for name := range experiments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns a one-line description of an experiment.
func Describe(name string) (string, error) {
	r, ok := experiments[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", core.ErrNoSuchExperiment, name)
	}
	return r.description, nil
}

// Collect computes the typed rows of the named experiment without
// rendering them. This is the surface the analysis service caches.
func Collect(p Params) (*Result, error) {
	r, ok := experiments[p.Experiment]
	if !ok {
		return nil, fmt.Errorf("%w: %q (known: %v)", core.ErrNoSuchExperiment, p.Experiment, Experiments())
	}
	if err := checkCoverage(p.Options); err != nil {
		return nil, err
	}
	root := runtimeSpan(&p)
	rows, err := r.collect(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Experiment: p.Experiment, Rows: rows}
	res.Runtime = runtimeBlock(p, root)
	return res, nil
}

// checkCoverage refuses a nonzero coverage outside metrics' range before
// anything runs: an experiment that never reads the coverage would
// otherwise accept any value.
func checkCoverage(o core.Options) error {
	if o.Coverage == 0 {
		return nil // metrics.DefaultCoverage
	}
	return metrics.CheckCoverage(o.Coverage)
}

// runtimeSpan installs a private root span when Params.Runtime is set
// and no span was supplied, so the collect step records its stages. It
// returns the span to end afterwards (nil when the caller owns one).
func runtimeSpan(p *Params) *obs.Span {
	if !p.Runtime || p.Options.Span != nil {
		return nil
	}
	root := obs.NewTracer(1).StartRun(p.Experiment)
	p.Options.Span = root
	return root
}

// runtimeBlock extracts the recorded span tree for the Result's runtime
// block (nil unless Params.Runtime was set).
func runtimeBlock(p Params, root *obs.Span) *obs.SpanData {
	if !p.Runtime {
		return nil
	}
	root.End() // nil-safe; a caller-supplied span stays open
	d := p.Options.Span.Data()
	return &d
}

// Run executes the named experiment, writing its table or series to w as
// aligned text, CSV (Params.CSV), or JSON (Params.JSON).
func Run(w io.Writer, p Params) error {
	r, ok := experiments[p.Experiment]
	if !ok {
		return fmt.Errorf("%w: %q (known: %v)", core.ErrNoSuchExperiment, p.Experiment, Experiments())
	}
	res, err := Collect(p)
	if err != nil {
		return err
	}
	if p.JSON {
		return report.JSON(w, res)
	}
	return r.render(w, res.Rows, p)
}

// AnalyzeTraceFile analyzes a materialized trace and renders it as a
// single Table 3 row (or a one-row JSON Result with Params.JSON).
func AnalyzeTraceFile(w io.Writer, t *trace.Trace, p Params) error {
	if err := checkCoverage(p.Options); err != nil {
		return err
	}
	p.Experiment = "trace"
	root := runtimeSpan(&p)
	a, err := core.AnalyzeTrace(t, p.Options)
	if err != nil {
		return err
	}
	if p.JSON {
		res := &Result{Experiment: "trace", Rows: []*core.Analysis{a}}
		res.Runtime = runtimeBlock(p, root)
		return report.JSON(w, res)
	}
	return report.Table3(w, []*core.Analysis{a}, p.CSV)
}

// RunAll executes every experiment, writing <name>.txt (or .csv/.json)
// files into dir. Used by cmd/locality -all to regenerate the results
// tree in one call. Slow experiments run once each; errors abort the
// sweep. Each file is written under a temporary name in dir and renamed
// once its experiment has succeeded, so dir never holds an empty or
// partial output.
func RunAll(dir string, p Params) error {
	ext := ".txt"
	switch {
	case p.JSON:
		ext = ".json"
	case p.CSV:
		ext = ".csv"
	}
	// The experiments revisit the same (app, ranks) cells over and over —
	// claims, score and table3 each run the whole Table 3 grid — so a
	// sweep without a shared artifact cache re-accumulates each trace's
	// matrices and rebuilds each topology several times. Results are
	// byte-identical either way.
	if p.Options.Cache == nil {
		p.Options.Cache = workcache.New(0)
	}
	for _, name := range Experiments() {
		q := p
		q.Experiment = name
		if err := writeFile(filepath.Join(dir, name+ext), func(w io.Writer) error { return Run(w, q) }); err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
	}
	return nil
}

// writeFile writes path through write: into path + ".tmp", renamed to
// path only when write and the close succeed, and removed otherwise.
func writeFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
