// Package design closes the loop the paper leaves open: instead of only
// *evaluating* a (topology, mapping) pair the user already picked, it
// searches the configuration space for a workload and returns a ranked
// design sheet.
//
// The search follows the two recipes named in PAPERS.md — Solnushkin's
// automated fat-tree design (enumerate feasible configurations under
// radix/cost constraints, arXiv 1301.6179) and Deng et al.'s
// minimal-mean-path-length topology search (arXiv 1904.00513) — and
// scores every candidate with the repo's full analysis pipeline: the
// workload trace is generated (or supplied) once, accumulated into
// communication matrices once, and each candidate configuration is then
// built, mapped, driven through the static network model (avg hops, link
// utilization) and the flow-level simulator (makespan), and priced with
// the shared topology.Cost model.
//
// All candidate evaluation fans out deterministically on
// internal/parallel: results are index-addressed, reductions and the
// final ranking run in index order, and tie-breaks are pinned by
// (score, candidate name) — so the ranked sheet is byte-identical at any
// worker count.
package design

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"netloc/internal/comm"
	"netloc/internal/core"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// Families lists the topology families the optimizer can sweep, in the
// canonical sheet order: the paper's families (plus mesh) first, then the
// extreme-scale families (Slim Fly, Jellyfish, HyperX).
func Families() []string { return topology.Kinds() }

// DefaultMappings are the mapping strategies a search sweeps when the
// request names none: the paper's consecutive baseline plus the greedy
// communication-aware mapper its discussion motivates.
func DefaultMappings() []string { return []string{core.MappingConsecutive, core.MappingGreedy} }

// Default search bounds.
const (
	// DefaultMaxRadix is the switch-radix cap when the request sets none
	// (the study's deliberately high fat-tree radix).
	DefaultMaxRadix = topology.FatTreeRadix
	// DefaultMaxCandidates bounds the enumerated configurations per
	// family when the request sets no cap.
	DefaultMaxCandidates = 6
	// maxNodeSlack rejects candidates provisioning more than this many
	// times the requested node count — gross overprovisioning is never
	// cost-competitive and only slows the sweep.
	maxNodeSlack = 4
)

// Constraints bound the candidate space. Zero values mean "default" for
// MaxRadix and MaxCandidates and "unbounded" for the cost caps.
type Constraints struct {
	// MaxRadix caps the switch radix of enumerated fat trees and
	// dragonflies (and requires >= 6 neighbor ports for torus/mesh
	// routers). Must be >= 3 when set; DefaultMaxRadix when zero.
	MaxRadix int `json:"max_radix,omitempty"`
	// MaxSwitches and MaxLinks drop candidates whose built cost exceeds
	// them (0 = unbounded). They are the cost proxies of the request.
	MaxSwitches int `json:"max_switches,omitempty"`
	MaxLinks    int `json:"max_links,omitempty"`
	// MaxCandidates caps the configurations enumerated per family
	// (DefaultMaxCandidates when zero).
	MaxCandidates int `json:"max_candidates,omitempty"`
}

func (c Constraints) maxRadix() int {
	if c.MaxRadix == 0 {
		return DefaultMaxRadix
	}
	return c.MaxRadix
}

func (c Constraints) maxCandidates() int {
	if c.MaxCandidates == 0 {
		return DefaultMaxCandidates
	}
	return c.MaxCandidates
}

// Weights are the relative importance of the three score terms. Each
// candidate's metric is normalized by the best value over the sheet, so
// a weight of 1 contributes 1.0 for the best candidate on that axis.
// The zero value (all weights zero) means the balanced default (1,1,1);
// with any weight set, zero weights disable their term.
type Weights struct {
	Hops     float64 `json:"hops"`
	Makespan float64 `json:"makespan"`
	Cost     float64 `json:"cost"`
}

func (w Weights) withDefaults() Weights {
	if w == (Weights{}) {
		return Weights{Hops: 1, Makespan: 1, Cost: 1}
	}
	return w
}

// Request describes one design search: a workload (a named app at a
// scale, or a pre-loaded trace) plus the candidate space to sweep.
type Request struct {
	// App and Ranks name the workload. App accepts the workload names
	// case-insensitively plus the design-only extras (see ExtraApps).
	// Ranks is also the node count the designed network must provide.
	App   string `json:"app"`
	Ranks int    `json:"ranks"`
	// Families restricts the swept topology families (nil = all of
	// Families(); an explicitly empty list is a validation error).
	Families []string `json:"families,omitempty"`
	// Mappings restricts the swept mapping strategies (nil =
	// DefaultMappings; an explicitly empty list is a validation error).
	Mappings    []string    `json:"mappings,omitempty"`
	Constraints Constraints `json:"constraints"`
	Weights     Weights     `json:"weights"`

	// Trace, when set, is the workload: App becomes a label and Ranks is
	// taken from the trace metadata. Never serialized.
	Trace *trace.Trace `json:"-"`
	// Progress, when set, observes candidate completion: it is called
	// after each evaluated configuration with the number done so far and
	// the total. Calls may arrive from worker goroutines; consumers
	// should clamp monotonically (the job store does).
	Progress func(done, total int) `json:"-"`
}

// withDefaults canonicalizes the request (families, mappings, weights).
func (r Request) withDefaults() Request {
	if r.Trace != nil {
		r.Ranks = r.Trace.Meta.Ranks
		if r.App == "" {
			r.App = r.Trace.Meta.App
		}
	}
	if r.Families == nil {
		r.Families = Families()
	}
	if r.Mappings == nil {
		r.Mappings = DefaultMappings()
	}
	r.Weights = r.Weights.withDefaults()
	return r
}

// prepare canonicalizes and validates a request, then refuses a node
// count above the options' rank caps (core.Options.CheckRanks) before
// anything is generated, extrapolated or sized by it. SearchContext and
// Store.Submit both go through it, so an over-cap job fails at submit.
func (r Request) prepare(opts core.Options) (Request, error) {
	r = r.withDefaults()
	if err := r.Validate(); err != nil {
		return r, err
	}
	if err := opts.CheckRanks(r.Ranks); err != nil {
		return r, fmt.Errorf("design: %w", err)
	}
	return r, nil
}

// ErrNoCandidates is wrapped by searches whose constraint set admits no
// configuration at all; services map it to a 400.
var ErrNoCandidates = errors.New("design: no feasible candidates")

// Validate canonicalizes the request (defaults filled in, as the search
// does) and checks it the way the service validates rank parameters:
// structured errors listing the admissible values, never a panic or a
// silent empty sheet.
func (r Request) Validate() error {
	r = r.withDefaults()
	if r.Trace == nil {
		if r.App == "" {
			return errors.New("design: missing app (or trace) in request")
		}
		if err := knownApp(r.App); err != nil {
			return err
		}
	}
	if r.Ranks <= 0 {
		return fmt.Errorf("design: non-positive node count %d (need >= 1)", r.Ranks)
	}
	if r.Constraints.MaxRadix != 0 && r.Constraints.MaxRadix < 3 {
		return fmt.Errorf("design: max_radix %d too small (need >= 3)", r.Constraints.MaxRadix)
	}
	if r.Constraints.MaxSwitches < 0 {
		return fmt.Errorf("design: negative max_switches %d", r.Constraints.MaxSwitches)
	}
	if r.Constraints.MaxLinks < 0 {
		return fmt.Errorf("design: negative max_links %d", r.Constraints.MaxLinks)
	}
	if r.Constraints.MaxCandidates < 0 {
		return fmt.Errorf("design: negative max_candidates %d", r.Constraints.MaxCandidates)
	}
	if len(r.Families) == 0 {
		return fmt.Errorf("design: empty candidate set: no families requested (known: %v)", Families())
	}
	for _, f := range r.Families {
		if !slices.Contains(Families(), f) {
			return fmt.Errorf("design: unknown family %q (known: %v)", f, Families())
		}
	}
	if len(r.Mappings) == 0 {
		return fmt.Errorf("design: empty candidate set: no mappings requested (known: %v)", core.MappingNames())
	}
	for _, m := range r.Mappings {
		if !slices.Contains(core.MappingNames(), m) {
			return fmt.Errorf("design: unknown mapping %q (known: %v)", m, core.MappingNames())
		}
	}
	for _, v := range [...]float64{r.Weights.Hops, r.Weights.Makespan, r.Weights.Cost} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("design: score weights %+v: hops, makespan and cost must be finite numbers >= 0", r.Weights)
		}
	}
	if r.Weights.Hops < 0 || r.Weights.Makespan < 0 || r.Weights.Cost < 0 {
		return fmt.Errorf("design: negative score weights %+v", r.Weights)
	}
	return nil
}

// Row is one ranked candidate of the design sheet: a topology
// configuration under one mapping strategy with its full metric block.
type Row struct {
	// Rank is the 1-based position after sorting by (Score, Name).
	Rank int `json:"rank"`
	// Name identifies the candidate, e.g. "torus(8,8,8)+greedy".
	Name    string          `json:"name"`
	Family  string          `json:"family"`
	Label   string          `json:"label"`
	Mapping string          `json:"mapping"`
	Config  topology.Config `json:"config"`
	Nodes   int             `json:"nodes"`

	// Cost is the shared hardware cost model; CostUnits is its scalar
	// collapse used by the score.
	Cost      topology.Cost `json:"cost"`
	CostUnits float64       `json:"cost_units"`

	// Static model metrics (netmodel): traffic-weighted hops under the
	// mapping, link utilization over the used links, and the share of
	// messages crossing global links.
	AvgHops          float64 `json:"avg_hops"`
	UtilizationPct   float64 `json:"utilization_pct"`
	UtilizationValid bool    `json:"utilization_valid"`
	GlobalMsgShare   float64 `json:"global_msg_share"`

	// Topology-intrinsic path statistics over all node pairs (uniform
	// traffic): the mean path length Deng et al. minimize, and the
	// diameter over endpoints.
	MeanPathLength float64 `json:"mean_path_length"`
	MaxHops        int     `json:"max_hops"`

	// Flow-level simulation metrics (simnet): end-to-end makespan and
	// the measured mean link-busy share over it.
	MakespanSec       float64 `json:"makespan_s"`
	SimUtilizationPct float64 `json:"sim_utilization_pct"`

	// Score is the weighted sum of best-normalized avg hops, makespan,
	// and cost units; lower is better.
	Score float64 `json:"score"`
}

// Sheet is the result of one search: the canonicalized request echo plus
// the ranked candidate rows.
type Sheet struct {
	App         string      `json:"app"`
	Ranks       int         `json:"ranks"`
	Families    []string    `json:"families"`
	Mappings    []string    `json:"mappings"`
	Constraints Constraints `json:"constraints"`
	Weights     Weights     `json:"weights"`
	// Configs counts the enumerated configurations; Filtered counts
	// those the switch/link cost caps rejected after building.
	Configs  int   `json:"configs"`
	Filtered int   `json:"filtered"`
	Rows     []Row `json:"rows"`
}

// Best returns the top-ranked row (nil for an empty sheet, which Search
// never returns).
func (s *Sheet) Best() *Row {
	if s == nil || len(s.Rows) == 0 {
		return nil
	}
	return &s.Rows[0]
}

// Candidates enumerates the constraint-feasible configurations for the
// requested families in deterministic order: families in the given
// order, configurations within a family sorted by (nodes, parameters).
func Candidates(ranks int, families []string, c Constraints) ([]topology.Config, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("design: non-positive node count %d", ranks)
	}
	var out []topology.Config
	for _, fam := range families {
		switch fam {
		case "torus":
			out = append(out, gridConfigs("torus", ranks, c)...)
		case "mesh":
			out = append(out, gridConfigs("mesh", ranks, c)...)
		case "fattree":
			out = append(out, ladderConfigs(ranks, c, fatTreeRadixLadder, topology.FatTreeAt)...)
		case "dragonfly":
			out = append(out, dragonflyConfigs(ranks, c)...)
		case "slimfly":
			out = append(out, ladderConfigs(ranks, c, topology.SlimFlyQLadder, topology.SlimFlyAt)...)
		case "jellyfish":
			out = append(out, ladderConfigs(ranks, c, jellyfishLoadLadder, jellyfishAt)...)
		case "hyperx":
			out = append(out, ladderConfigs(ranks, c, hyperXLoadLadder, topology.HyperXAt)...)
		default:
			return nil, fmt.Errorf("design: unknown family %q (known: %v)", fam, Families())
		}
	}
	return out, nil
}

// gridConfigs enumerates 3D grids x >= y >= z with x*y*z >= ranks and at
// most 2x overprovisioning, smallest volume (then most cubic) first. The
// family is infeasible under a radix cap below a grid router's radix.
func gridConfigs(kind string, ranks int, c Constraints) []topology.Config {
	if (topology.Config{Kind: kind}).SwitchRadix() > c.maxRadix() {
		return nil
	}
	type dims struct{ x, y, z int }
	seen := map[dims]bool{}
	var all []dims
	for z := 1; z*z*z <= 2*ranks; z++ {
		for y := z; y*y*z <= 2*ranks; y++ {
			// Smallest x >= y covering the ranks.
			x := (ranks + y*z - 1) / (y * z)
			if x < y {
				x = y
			}
			vol := x * y * z
			if vol > 2*ranks {
				continue
			}
			d := dims{x, y, z}
			if !seen[d] {
				seen[d] = true
				all = append(all, d)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		vi, vj := all[i].x*all[i].y*all[i].z, all[j].x*all[j].y*all[j].z
		if vi != vj {
			return vi < vj
		}
		if all[i].x != all[j].x {
			return all[i].x < all[j].x
		}
		if all[i].y != all[j].y {
			return all[i].y < all[j].y
		}
		return all[i].z < all[j].z
	})
	if len(all) > c.maxCandidates() {
		all = all[:c.maxCandidates()]
	}
	out := make([]topology.Config, 0, len(all))
	for _, d := range all {
		out = append(out, topology.Config{
			Kind: kind, Size: ranks, Nodes: d.x * d.y * d.z, X: d.x, Y: d.y, Z: d.z,
		})
	}
	return out
}

// keeps reports whether an enumerated configuration fits the radix cap
// without provisioning more than maxNodeSlack times the ranks; a
// single-switch fat tree is kept however much it overprovisions.
func (c Constraints) keeps(cfg topology.Config, ranks int) bool {
	return cfg.SwitchRadix() <= c.maxRadix() &&
		(cfg.Nodes <= maxNodeSlack*ranks || cfg.Kind == "fattree" && cfg.Stages == 1)
}

// trimConfigs orders one family's configurations by node count and keeps
// the first maxCandidates. The enumerators list configurations in
// ascending parameter order, so the stable sort breaks node-count ties
// by parameters.
func trimConfigs(out []topology.Config, c Constraints) []topology.Config {
	slices.SortStableFunc(out, func(a, b topology.Config) int { return cmp.Compare(a.Nodes, b.Nodes) })
	if len(out) > c.maxCandidates() {
		out = out[:c.maxCandidates()]
	}
	return out
}

// ladderConfigs sizes one family at every ladder parameter through its
// topology constructor (topology.FatTreeAt, SlimFlyAt, JellyfishAt or
// HyperXAt) and keeps what the constraints admit, sorted by (nodes,
// parameter).
func ladderConfigs(ranks int, c Constraints, ladder []int, at func(ranks, param int) (topology.Config, bool)) []topology.Config {
	var out []topology.Config
	for _, param := range ladder {
		if cfg, ok := at(ranks, param); ok && c.keeps(cfg, ranks) {
			out = append(out, cfg)
		}
	}
	return trimConfigs(out, c)
}

// fatTreeRadixLadder are the switch radices the fat-tree sweep tries
// (common commercial port counts): the smallest covering fat tree per
// radix is Solnushkin's design space of radix and stage count.
var fatTreeRadixLadder = []int{4, 8, 12, 16, 24, 32, 48, 64}

// jellyfishLoadLadder are the endpoint loads p the Jellyfish sweep tries.
var jellyfishLoadLadder = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// hyperXLoadLadder are the terminal counts the HyperX sweep tries.
var hyperXLoadLadder = []int{2, 4, 8, 16, 32}

// jellyfishAt is topology.JellyfishAt without degrees below 3 unless the
// graph is complete: sparse random graphs risk disconnection, which would
// abort the sweep.
func jellyfishAt(ranks, p int) (topology.Config, bool) {
	cfg, ok := topology.JellyfishAt(ranks, p)
	return cfg, ok && (cfg.D >= 3 || cfg.D == cfg.S-1)
}

// dragonflyConfigs enumerates near-balanced dragonflies (a ≈ 2h, p ≈ h,
// Kim's balancing rule) whose router radix fits the cap and whose node
// count covers the ranks without gross overprovisioning, sorted by
// (nodes, a, h, p).
func dragonflyConfigs(ranks int, c Constraints) []topology.Config {
	var out []topology.Config
	for a := 2; a <= 24; a++ {
		for h := 1; h <= a; h++ {
			if d := a - 2*h; d < -2 || d > 2 {
				continue // keep near-balanced: a ≈ 2h
			}
			for p := h; p <= h+1; p++ {
				nodes := a * p * (a*h + 1)
				cfg := topology.Config{Kind: "dragonfly", Size: ranks, Nodes: nodes, A: a, H: h, P: p}
				if nodes >= ranks && c.keeps(cfg, ranks) {
					out = append(out, cfg)
				}
			}
		}
	}
	return trimConfigs(out, c)
}

// Search runs the design search to completion. See SearchContext.
func Search(req Request, opts core.Options) (*Sheet, error) {
	return SearchContext(context.Background(), req, opts)
}

// configOutcome is the per-configuration fan-out result: either the
// mapping rows or a filtered marker (cost caps exceeded).
type configOutcome struct {
	rows     []Row
	filtered bool
}

// SearchContext enumerates, evaluates, and ranks the candidate space.
// A node count above the options' rank caps (core.Options.CheckRanks)
// fails before any trace is generated. Cancelling the context stops the
// sweep at the next configuration boundary and returns the context
// error; worker tokens drawn from the options' budget are released
// before it returns.
func SearchContext(ctx context.Context, req Request, opts core.Options) (*Sheet, error) {
	req, err := req.prepare(opts)
	if err != nil {
		return nil, err
	}
	opts = opts.WithEngine()

	t, key, err := resolveTrace(req, opts)
	if err != nil {
		return nil, err
	}
	// The Wire below needs the trace, so it is generated first; an
	// attached trace is never cached (see resolveTrace).
	var acc *comm.Accumulated
	if req.Trace != nil {
		acc, err = core.Accumulate(t.Source(), opts)
	} else {
		acc, err = core.Matrices(key, func() (trace.Source, error) { return t.Source(), nil }, opts)
	}
	if err != nil {
		return nil, err
	}

	cfgs, err := Candidates(req.Ranks, req.Families, req.Constraints)
	if err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("%w: no configuration in families %v covers %d nodes under max_radix %d",
			ErrNoCandidates, req.Families, req.Ranks, req.Constraints.maxRadix())
	}

	// Every candidate replays the same Wire: the trace is expanded,
	// interned and sorted once per search, not once per candidate.
	w, err := simnet.Prepare(t)
	if err != nil {
		return nil, fmt.Errorf("design: %w", err)
	}

	total := len(cfgs)
	outcomes := make([]configOutcome, total)
	var done atomic.Int64
	err = opts.Runner().ForEachErr(total, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		oc, err := evaluateConfig(ctx, cfgs[i], req, w, acc, opts)
		if err != nil {
			return fmt.Errorf("design: %s%s: %w", cfgs[i].Kind, cfgs[i], err)
		}
		outcomes[i] = oc
		d := int(done.Add(1))
		if req.Progress != nil {
			req.Progress(d, total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sheet := &Sheet{
		App:         t.Meta.App,
		Ranks:       req.Ranks,
		Families:    req.Families,
		Mappings:    req.Mappings,
		Constraints: req.Constraints,
		Weights:     req.Weights,
		Configs:     total,
	}
	for _, oc := range outcomes {
		if oc.filtered {
			sheet.Filtered++
			continue
		}
		sheet.Rows = append(sheet.Rows, oc.rows...)
	}
	if len(sheet.Rows) == 0 {
		return nil, fmt.Errorf("%w: all %d enumerated configurations exceed the cost caps (max_switches=%d, max_links=%d)",
			ErrNoCandidates, total, req.Constraints.MaxSwitches, req.Constraints.MaxLinks)
	}
	rankRows(sheet.Rows, req.Weights)
	for _, r := range sheet.Rows {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return nil, fmt.Errorf("design: score weights %+v overflow the score of %s (%g); use smaller weights", req.Weights, r.Name, r.Score)
		}
	}
	opts.Span.Add("design_configs", int64(total))
	opts.Span.Add("design_candidates", int64(len(sheet.Rows)))
	return sheet, nil
}

// evaluateConfig builds one configuration (core.Topology), prices it,
// filters it against the cost caps, takes its path statistics
// (topology.PathStats), and scores it under every requested mapping:
// core.Model for the static model, then a simnet replay of the Wire. The
// per-config work is fully sequential so the parallel fan-out above
// stays index-deterministic. The stages record their spans, pathstats
// among them, under a "candidate" span. The sheet reads only the
// simulation's makespan and link utilization, so the Wire replays
// without per-message bookkeeping (simnet.Wire.Load).
func evaluateConfig(ctx context.Context, cfg topology.Config, req Request, w *simnet.Wire, acc *comm.Accumulated, opts core.Options) (configOutcome, error) {
	span := opts.Span.Start("candidate")
	span.SetLabel(cfg.Kind + cfg.String())
	defer span.End()
	opts.Span = span

	topo, err := core.Topology(cfg, opts)
	if err != nil {
		return configOutcome{}, err
	}
	cost := topology.CostOf(topo)
	if (req.Constraints.MaxSwitches > 0 && cost.Switches > req.Constraints.MaxSwitches) ||
		(req.Constraints.MaxLinks > 0 && cost.Links > req.Constraints.MaxLinks) {
		span.Add("filtered", 1)
		return configOutcome{filtered: true}, nil
	}
	psp := span.Start("pathstats")
	mpl, maxHops := topology.PathStats(topo)
	psp.End()

	rows := make([]Row, 0, len(req.Mappings))
	for _, mapName := range req.Mappings {
		if err := ctx.Err(); err != nil {
			return configOutcome{}, err
		}
		nm, mp, err := core.Model(acc, cfg, topo, mapName, opts)
		var sim *simnet.Stats
		if err == nil {
			ssp := span.Start("simnet")
			ssp.SetLabel(mapName)
			if sim, err = w.Load(topo, mp, simnet.Options{}); err == nil {
				ssp.Add("sim_messages", int64(sim.Messages))
			}
			ssp.End()
		}
		if err != nil {
			return configOutcome{}, fmt.Errorf("%s mapping: %w", mapName, err)
		}
		rows = append(rows, Row{
			Name:              cfg.Kind + cfg.String() + "+" + mapName,
			Family:            cfg.Kind,
			Label:             cfg.String(),
			Mapping:           mapName,
			Config:            cfg,
			Nodes:             topo.Nodes(),
			Cost:              cost,
			CostUnits:         cost.Units(),
			AvgHops:           nm.AvgHops,
			UtilizationPct:    nm.UtilizationPct,
			UtilizationValid:  nm.UtilizationValid,
			GlobalMsgShare:    nm.GlobalMsgShare,
			MeanPathLength:    mpl,
			MaxHops:           maxHops,
			MakespanSec:       sim.Makespan,
			SimUtilizationPct: sim.MeasuredUtilizationPct,
		})
	}
	return configOutcome{rows: rows}, nil
}

// rankRows scores every row against the sheet's best values, sorts by
// (score, name) — the pinned tie-break — and assigns 1-based ranks. The
// minima and the score loop run in slice order, so the ranking is
// deterministic for a deterministic row set.
func rankRows(rows []Row, w Weights) {
	minHops, minMakespan, minCost := 0.0, 0.0, 0.0
	for _, r := range rows {
		if r.AvgHops > 0 && (minHops == 0 || r.AvgHops < minHops) {
			minHops = r.AvgHops
		}
		if r.MakespanSec > 0 && (minMakespan == 0 || r.MakespanSec < minMakespan) {
			minMakespan = r.MakespanSec
		}
		if r.CostUnits > 0 && (minCost == 0 || r.CostUnits < minCost) {
			minCost = r.CostUnits
		}
	}
	norm := func(v, min float64) float64 {
		if v <= 0 || min <= 0 {
			return 0
		}
		return v / min
	}
	for i := range rows {
		rows[i].Score = w.Hops*norm(rows[i].AvgHops, minHops) +
			w.Makespan*norm(rows[i].MakespanSec, minMakespan) +
			w.Cost*norm(rows[i].CostUnits, minCost)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Score != rows[j].Score {
			return rows[i].Score < rows[j].Score
		}
		return rows[i].Name < rows[j].Name
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
}

// CanonicalKey renders a canonicalized request as a stable string for
// result caching: equivalent requests (defaults filled in) share a key.
func (r Request) CanonicalKey() string {
	r = r.withDefaults()
	return fmt.Sprintf("design?app=%s&ranks=%d&families=%s&mappings=%s&radix=%d&switches=%d&links=%d&cand=%d&w=%g,%g,%g",
		strings.ToLower(r.App), r.Ranks,
		strings.Join(r.Families, ","), strings.Join(r.Mappings, ","),
		r.Constraints.maxRadix(), r.Constraints.MaxSwitches, r.Constraints.MaxLinks,
		r.Constraints.maxCandidates(), r.Weights.Hops, r.Weights.Makespan, r.Weights.Cost)
}
