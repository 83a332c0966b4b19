package main

import (
	"runtime/metrics"
	"time"
)

// allocCounters reads the runtime's cumulative heap allocation counters.
// They only grow, so the difference across a call is what the call (and
// any goroutine it waited on) allocated; under Parallelism 1 nothing else
// runs, which makes the per-call attribution honest.
type allocCounters struct {
	samples []metrics.Sample
}

func newAllocCounters() *allocCounters {
	return &allocCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func (a *allocCounters) read() (bytes, objects uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// layerStat accumulates the calls made into one layer.
type layerStat struct {
	seconds float64
	calls   int
	bytes   uint64
	objects uint64
}

// tracer times calls into the program's layers from outside: each call
// is one span named after its layer, with its wall time and the heap it
// allocated. Calls are never nested, so the sums are self times.
type tracer struct {
	alloc  *allocCounters
	layers map[string]*layerStat
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{alloc: newAllocCounters(), layers: map[string]*layerStat{}, counts: map[string]float64{}}
}

// time runs fn as one call into layer.
func (tr *tracer) time(layer string, fn func() error) error {
	b0, o0 := tr.alloc.read()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	b1, o1 := tr.alloc.read()
	s := tr.layers[layer]
	if s == nil {
		s = &layerStat{}
		tr.layers[layer] = s
	}
	s.seconds += d.Seconds()
	s.calls++
	s.bytes += b1 - b0
	s.objects += o1 - o0
	return err
}

// count adds work done in a layer, e.g. events generated.
func (tr *tracer) count(name string, n float64) { tr.counts[name] += n }

func (tr *tracer) seconds(layer string) float64 {
	if s := tr.layers[layer]; s != nil {
		return s.seconds
	}
	return 0
}

func (tr *tracer) calls(layer string) float64 {
	if s := tr.layers[layer]; s != nil {
		return float64(s.calls)
	}
	return 0
}

func (tr *tracer) allocsK(layer string) float64 {
	if s := tr.layers[layer]; s != nil {
		return float64(s.objects) / 1e3
	}
	return 0
}

// covered is the summed time of every timed call.
func (tr *tracer) covered() float64 {
	var sum float64
	for _, s := range tr.layers {
		sum += s.seconds
	}
	return sum
}

// layerMetrics turns one traced unit into the per-layer metrics. total
// is the traced unit's wall time and untraced the wall time of the same
// unit run sequentially through the program's own entry point.
func (tr *tracer) layerMetrics(total, untraced float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for _, l := range []string{"workloads.generate", "comm.accumulate", "metrics.mpi_metrics",
		"topology.build", "mapping.consecutive", "mapping.greedy", "netmodel.run",
		"simnet.simulate", "congest.tolerance", "report.render"} {
		m[l+"_s"] = tr.seconds(l)
	}
	m["workloads.generate_calls"] = tr.calls("workloads.generate")
	m["topology.builds"] = tr.calls("topology.build")
	m["comm.accumulate_allocs_k"] = tr.allocsK("comm.accumulate")
	m["simnet.simulate_allocs_k"] = tr.allocsK("simnet.simulate")
	m["congest.tolerance_allocs_k"] = tr.allocsK("congest.tolerance")
	for _, p := range congestPolicies {
		l := "congest.simulate." + p
		m["congest.simulate_s."+p] = tr.seconds(l)
		m["congest.simulate_s"] += tr.seconds(l)
		m["congest.simulate_allocs_k"] += tr.allocsK(l)
	}
	for k, v := range tr.counts {
		m[k] = v
	}
	if p := m["congest.probes"]; p > 0 {
		m["congest.s_per_probe"] = m["congest.tolerance_s"] / p
	}
	if total > 0 {
		m["bench.coverage"] = tr.covered() / total
	}
	if untraced > 0 {
		m["bench.overhead"] = total/untraced - 1
	}
	return m
}
