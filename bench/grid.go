package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"netloc/internal/comm"
	"netloc/internal/congest"
	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/mapping"
	"netloc/internal/metrics"
	"netloc/internal/netmodel"
	"netloc/internal/parallel"
	"netloc/internal/report"
	"netloc/internal/simnet"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

var congestPolicies = congest.Policies()

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// mismatch reports an output that differs from its pinned value.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("output gate: "+format, args...)
}

// ---- table3-cold and table3-warm ----

// table3 is the paper's main table, rendered as CSV and pinned
// byte-for-byte to results/table3.csv. Cold runs without an artifact
// cache, so every unit generates and accumulates all 38 traces; warm
// shares one cache filled during set-up, so only the metric, mapping and
// netmodel stages do work.
type table3 struct {
	root  string
	warm  bool
	want  []byte
	cache *workcache.Cache
}

func (w *table3) setup() error {
	want, err := os.ReadFile(filepath.Join(w.root, "results", "table3.csv"))
	if err != nil {
		return err
	}
	w.want = want
	if w.warm {
		w.cache = workcache.New(0)
		if err := w.once(0); err != nil { // fills the cache
			return err
		}
	}
	return w.once(0) // warm-up unit
}

func (w *table3) once(par int) error {
	rows, err := core.Table3(core.Options{Parallelism: par, Cache: w.cache})
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := report.Table3(&b, rows, true); err != nil {
		return err
	}
	if !bytes.Equal(b.Bytes(), w.want) {
		return mismatch("table3 CSV differs from results/table3.csv")
	}
	return nil
}

func (w *table3) unit() (int, int, error) { return oneUnit(w.once(0)) }

// oneUnit counts one grid unit, failed when it returned an error.
func oneUnit(err error) (attempted, failed int, _ error) {
	if err != nil {
		return 1, 1, err
	}
	return 1, 0, nil
}

func (w *table3) tracePair() (map[string]float64, error) {
	untraced, err := timed(func() error { return w.once(1) })
	if err != nil {
		return nil, err
	}
	before := w.cache.Stats()
	tr := newTracer()
	start := time.Now()
	rows, err := rebuildTable3(tr, w.cache, 0)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := tr.time("report.render", func() error { return report.Table3(&b, rows, true) }); err != nil {
		return nil, err
	}
	total := time.Since(start).Seconds()
	if !bytes.Equal(b.Bytes(), w.want) {
		return nil, mismatch("traced table3 CSV differs from results/table3.csv")
	}
	m := tr.layerMetrics(total, untraced)
	cacheMetrics(m, before, w.cache.Stats())
	return m, nil
}

// cacheMetrics records the artifact-cache lookups made between two
// snapshots. A nil cache reads zero everywhere.
func cacheMetrics(m map[string]float64, before, after workcache.Stats) {
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	m["workcache.hits"] = hits
	m["workcache.misses"] = misses
	m["workcache.evictions"] = float64(after.Evictions - before.Evictions)
	if hits+misses > 0 {
		m["workcache.hit_ratio"] = hits / (hits + misses)
	}
}

func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// rebuildTable3 re-runs core.Table3 sequentially from the public calls
// of each layer, in the order core makes them, so each call is timed on
// its own. maxRanks caps the grid like core.Options.MaxRanks.
func rebuildTable3(tr *tracer, cache *workcache.Cache, maxRanks int) ([]*core.Analysis, error) {
	var rows []*core.Analysis
	for _, ref := range core.AllConfigurations() {
		if maxRanks > 0 && ref.Ranks > maxRanks {
			continue
		}
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return nil, err
		}
		acc, err := cache.Accumulated(workcache.AccKey{Source: workcache.SourceGenerate, App: app.Name, Ranks: ref.Ranks},
			func() (*comm.Accumulated, error) {
				t, err := tr.generate(cache, app, ref.Ranks)
				if err != nil {
					return nil, err
				}
				return tr.accumulate(t)
			})
		if err != nil {
			return nil, err
		}
		a := &core.Analysis{App: acc.Meta.App, Ranks: acc.Meta.Ranks, WallTime: acc.Meta.WallTime}
		if acc.P2P.TotalBytes() > 0 {
			a.HasP2P = true
			err := tr.time("metrics.mpi_metrics", func() (err error) {
				var eng metrics.Engine
				q := metrics.DefaultCoverage
				a.Peers, _ = metrics.Peers(acc.P2P)
				if a.RankDistance, err = eng.RankDistance(acc.P2P, q); err != nil {
					return err
				}
				if a.RankLocality, err = eng.RankLocality(acc.P2P, q); err != nil {
					return err
				}
				a.Selectivity, err = eng.Selectivity(acc.P2P, q)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		tor, ft, df, err := topology.Configs(a.Ranks)
		if err != nil {
			return nil, err
		}
		dst := []**core.TopoResult{&a.Torus, &a.FatTree, &a.Dragonfly}
		for i, cfg := range []topology.Config{tor, ft, df} {
			topo, err := tr.build(cache, cfg)
			if err != nil {
				return nil, err
			}
			mp, err := tr.mapping(core.MappingConsecutive, acc, topo)
			if err != nil {
				return nil, err
			}
			res, err := tr.netmodel(acc, topo, mp)
			if err != nil {
				return nil, err
			}
			*dst[i] = &core.TopoResult{
				Config: cfg, PacketHops: res.PacketHops, Packets: res.Packets, AvgHops: res.AvgHops,
				UtilizationPct: res.UtilizationPct, UtilizationValid: res.UtilizationValid,
				UsedLinks: res.UsedLinks, GlobalMsgShare: res.GlobalMsgShare,
			}
		}
		rows = append(rows, a)
	}
	return rows, nil
}

// generate returns a registry trace through the artifact cache, as core
// does; only a miss calls, and times, the generator.
func (tr *tracer) generate(cache *workcache.Cache, app *workloads.App, ranks int) (*trace.Trace, error) {
	return cache.Trace(workcache.TraceKey{Source: workcache.SourceGenerate, App: app.Name, Ranks: ranks},
		func() (t *trace.Trace, err error) {
			err = tr.time("workloads.generate", func() (err error) {
				t, err = app.Generate(ranks)
				return err
			})
			if err == nil {
				tr.count("workloads.events", float64(len(t.Events)))
			}
			return t, err
		})
}

func (tr *tracer) accumulate(t *trace.Trace) (acc *comm.Accumulated, err error) {
	err = tr.time("comm.accumulate", func() (err error) {
		acc, err = comm.AccumulateParallel(t, comm.AccumulateOptions{}, parallel.Seq())
		return err
	})
	if err == nil {
		tr.count("comm.wire_pairs", float64(acc.Wire.Pairs()))
	}
	return acc, err
}

func (tr *tracer) build(cache *workcache.Cache, cfg topology.Config) (topology.Topology, error) {
	return cache.Topology(cfg, func() (topo topology.Topology, err error) {
		err = tr.time("topology.build", func() (err error) {
			topo, err = cfg.Build()
			return err
		})
		return topo, err
	})
}

func (tr *tracer) mapping(name string, acc *comm.Accumulated, topo topology.Topology) (mp *mapping.Mapping, err error) {
	err = tr.time("mapping."+name, func() (err error) {
		mp, err = core.BuildMapping(name, acc, topo)
		return err
	})
	return mp, err
}

func (tr *tracer) netmodel(acc *comm.Accumulated, topo topology.Topology, mp *mapping.Mapping) (res *netmodel.Result, err error) {
	err = tr.time("netmodel.run", func() (err error) {
		res, err = netmodel.Run(acc.Wire, topo, mp, netmodel.Options{WallTime: acc.Meta.WallTime, TrackLinks: true})
		return err
	})
	if err == nil {
		tr.count("netmodel.packet_hops", float64(res.PacketHops))
	}
	return res, err
}

// ---- congestion ----

// congestionRefs are the two workloads of the default congestion study
// (core.CongestionWorkloads) whose cells take seconds, not tens of
// seconds: CESAR MOCFE/64 and BigFFT/100 need 9–12 s each sequentially,
// which would leave one sample per run. Families, policies and the 5%
// tolerance sweep stay at the study's defaults. The two kept workloads
// carry about a fifth (18–20%) of the full study's sequential time, of
// its tolerance-sweep time and of its replayed messages; the dropped two
// replay 2–8 times more messages each at a similar cost per message.
var congestionRefs = []core.WorkloadRef{{App: "LULESH", Ranks: 64}, {App: "Crystal Router", Ranks: 100}}

type congestion struct {
	pins *pins
}

func (w *congestion) setup() error { return w.once(0) }

func (w *congestion) once(par int) error {
	rows, err := core.CongestionTable(congestionRefs, nil, nil, 0, core.Options{Parallelism: par, Cache: workcache.New(0)})
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := report.Congestion(&b, rows, false); err != nil {
		return err
	}
	return w.check(rows)
}

func (w *congestion) check(rows []core.CongestionRow) error {
	js, err := report.JSONBytes(rows)
	if err != nil {
		return err
	}
	return w.pins.check("rows", js)
}

func (w *congestion) unit() (int, int, error) { return oneUnit(w.once(0)) }

func (w *congestion) tracePair() (map[string]float64, error) {
	untraced, err := timed(func() error { return w.once(1) })
	if err != nil {
		return nil, err
	}
	cache := workcache.New(0)
	tr := newTracer()
	start := time.Now()
	rows, err := rebuildCongestion(tr, cache)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := tr.time("report.render", func() error { return report.Congestion(&b, rows, false) }); err != nil {
		return nil, err
	}
	total := time.Since(start).Seconds()
	if err := w.check(rows); err != nil {
		return nil, mismatch("traced rebuild: %v", err)
	}
	m := tr.layerMetrics(total, untraced)
	cacheMetrics(m, workcache.Stats{}, cache.Stats())
	return m, nil
}

// rebuildCongestion re-runs core.CongestionTable over congestionRefs
// sequentially: per workload the trace, per family the topology and the
// consecutive mapping, then every policy's simulation and, on the
// minimal row, the latency-tolerance sweep.
func rebuildCongestion(tr *tracer, cache *workcache.Cache) ([]core.CongestionRow, error) {
	var rows []core.CongestionRow
	for _, ref := range congestionRefs {
		app, err := workloads.Lookup(ref.App)
		if err != nil {
			return nil, err
		}
		t, err := tr.generate(cache, app, ref.Ranks)
		if err != nil {
			return nil, err
		}
		for _, fam := range []string{"torus", "fattree", "dragonfly"} {
			cfg, err := core.ConfigFor(fam, ref.Ranks)
			if err != nil {
				return nil, err
			}
			topo, err := tr.build(cache, cfg)
			if err != nil {
				return nil, err
			}
			var mp *mapping.Mapping
			err = tr.time("mapping.consecutive", func() (err error) {
				mp, err = mapping.Consecutive(ref.Ranks, topo.Nodes())
				return err
			})
			if err != nil {
				return nil, err
			}
			for _, policy := range congestPolicies {
				opts := congest.Options{Policy: policy}
				var stats *congest.Stats
				err := tr.time("congest.simulate."+policy, func() (err error) {
					stats, err = congest.Simulate(t, topo, mp, opts)
					return err
				})
				if err != nil {
					return nil, err
				}
				tr.count("congest.messages", float64(stats.Messages))
				row := core.CongestionRow{App: ref.App, Ranks: ref.Ranks, Topology: topo.Kind(), Stats: *stats}
				if policy == congest.PolicyMinimal {
					err := tr.time("congest.tolerance", func() (err error) {
						row.Tolerance, err = congest.LatencyTolerance(t, topo, mp, opts, 0)
						return err
					})
					if err != nil {
						return nil, err
					}
					tr.count("congest.probes", float64(row.Tolerance.Probes))
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// ---- design ----

// designRequest is the design search behind cmd/netdesign's defaults for
// LULESH at 512 nodes: 38 candidates over all seven families, each
// under consecutive and greedy mapping.
var designRequest = design.Request{App: "LULESH", Ranks: 512}

type designSearch struct {
	pins *pins
}

func (w *designSearch) setup() error {
	_, err := w.once(0)
	return err
}

func (w *designSearch) once(par int) (*design.Sheet, error) {
	sheet, err := design.Search(designRequest, core.Options{Parallelism: par, Cache: workcache.New(0)})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := report.DesignSheet(&b, sheet, false); err != nil {
		return nil, err
	}
	js, err := report.JSONBytes(sheet)
	if err != nil {
		return nil, err
	}
	if err := w.pins.check("sheet", js); err != nil {
		return nil, err
	}
	return sheet, nil
}

func (w *designSearch) unit() (int, int, error) {
	_, err := w.once(0)
	return oneUnit(err)
}

func (w *designSearch) tracePair() (map[string]float64, error) {
	var sheet *design.Sheet
	untraced, err := timed(func() (err error) {
		sheet, err = w.once(1)
		return err
	})
	if err != nil {
		return nil, err
	}
	cache := workcache.New(0)
	tr := newTracer()
	start := time.Now()
	got, configs, err := rebuildDesign(tr, cache)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := tr.time("report.render", func() error { return report.DesignSheet(&b, sheet, false) }); err != nil {
		return nil, err
	}
	total := time.Since(start).Seconds()
	if err := matchSheet(sheet, got); err != nil {
		return nil, err
	}
	m := tr.layerMetrics(total, untraced)
	cacheMetrics(m, workcache.Stats{}, cache.Stats())
	m["design.configs"] = float64(configs)
	m["design.candidates"] = float64(len(sheet.Rows))
	// What the search spends outside the rebuilt calls: enumeration,
	// path statistics and ranking.
	m["design.residual_s"] = untraced - tr.covered()
	return m, nil
}

// candidate is one rebuilt design row: what the sheet must agree with.
type candidate struct{ avgHops, makespan float64 }

// rebuildDesign re-runs design.Search's evaluation sequentially:
// trace, matrices, the candidate list, and per candidate the topology
// and, per mapping, the mapping, netmodel and simnet. It returns each
// candidate by its sheet row name.
func rebuildDesign(tr *tracer, cache *workcache.Cache) (map[string]candidate, int, error) {
	app, err := workloads.Lookup(designRequest.App)
	if err != nil {
		return nil, 0, err
	}
	t, err := tr.generate(cache, app, designRequest.Ranks)
	if err != nil {
		return nil, 0, err
	}
	acc, err := tr.accumulate(t)
	if err != nil {
		return nil, 0, err
	}
	cfgs, err := design.Candidates(designRequest.Ranks, design.Families(), designRequest.Constraints)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]candidate{}
	for _, cfg := range cfgs {
		topo, err := tr.build(cache, cfg)
		if err != nil {
			return nil, 0, err
		}
		for _, name := range design.DefaultMappings() {
			mp, err := tr.mapping(name, acc, topo)
			if err != nil {
				return nil, 0, err
			}
			nm, err := tr.netmodel(acc, topo, mp)
			if err != nil {
				return nil, 0, err
			}
			var sim *simnet.Stats
			err = tr.time("simnet.simulate", func() (err error) {
				sim, err = simnet.Simulate(t, topo, mp, simnet.Options{})
				return err
			})
			if err != nil {
				return nil, 0, err
			}
			tr.count("simnet.messages", float64(sim.Messages))
			out[cfg.Kind+cfg.String()+"+"+name] = candidate{avgHops: nm.AvgHops, makespan: sim.Makespan}
		}
	}
	return out, len(cfgs), nil
}

// matchSheet checks that every sheet row has a rebuilt candidate of the
// same name with bit-identical AvgHops and MakespanSec, and no more.
func matchSheet(sheet *design.Sheet, got map[string]candidate) error {
	if len(got) != len(sheet.Rows) {
		return mismatch("traced design rebuilt %d candidates, sheet has %d", len(got), len(sheet.Rows))
	}
	for _, r := range sheet.Rows {
		c, ok := got[r.Name]
		if !ok {
			return mismatch("traced design has no candidate %s", r.Name)
		}
		if math.Float64bits(c.avgHops) != math.Float64bits(r.AvgHops) ||
			math.Float64bits(c.makespan) != math.Float64bits(r.MakespanSec) {
			return mismatch("traced design %s: hops %v makespan %v, sheet %v %v",
				r.Name, c.avgHops, c.makespan, r.AvgHops, r.MakespanSec)
		}
	}
	return nil
}
