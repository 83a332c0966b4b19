// Package workcache provides the content-addressed workload artifact
// cache shared by the experiment drivers, the design sweep, and the
// analysis service.
//
// The paper's tables and figures sweep a (workload × scale × topology ×
// mapping) grid, but the expensive inputs — the accumulated communication
// matrices and the built topologies — depend only on (app, ranks,
// expansion strategy) and the topology's structural parameters
// respectively. Without a cache, every experiment re-derives them per
// cell; with one, the first run pays and every other experiment, design
// candidate, and service request above it shares the artifact. Generated
// traces are not among them: the pipeline streams each one into the
// artifacts made from it (see core.Generate), so no program path caches
// an event list.
//
// Cached values are shared read-only: accumulated matrices by type (a
// comm.Matrix has no method that writes), built topologies because
// nothing modifies one after construction, and all derived analysis is
// exact integer or index-ordered arithmetic, so a cached artifact
// produces byte-identical reports to a fresh one, and no artifact depends
// on how it was scheduled.
//
// Concurrency: every accessor goes through one LRU (lru.go), the same
// deduplicating store that holds the analysis service's marshaled
// responses. Its one mutex guards the store and the in-flight
// generations, so a cold-start storm on one key runs one generation and
// the waiters share the result. A nil *Cache is valid and disables
// caching — every accessor just runs its generator.
package workcache

import (
	"fmt"
	"strings"

	"netloc/internal/comm"
	"netloc/internal/mpi"
	"netloc/internal/topology"
	"netloc/internal/trace"
)

// DefaultMaxEntries bounds the artifact store when New is given a
// non-positive cap. Artifacts are per (app, ranks[, accumulate options])
// and the full experiment grid touches a few dozen, so 128 holds the
// entire paper sweep plus service traffic with room to spare.
const DefaultMaxEntries = 128

// TraceKey names a generated trace; AccKey extends it to address the
// trace's matrices. Source names the generator kind ("gen" for the
// registry's configured scales, "genat" for extrapolated scales, "milc"
// for the design-only synthetic) so generators with different domains
// can never satisfy each other's lookups — a registry lookup must still
// fail at an unconfigured scale even when the design sweep cached an
// extrapolated workload's matrices there.
type TraceKey struct {
	Source string
	App    string
	Ranks  int
}

// SourceGenerate is the TraceKey source for registry traces at a
// configured scale (App.Stream, App.Generate).
const SourceGenerate = "gen"

// SourceGenerateAt is the TraceKey source for extrapolated traces
// (App.StreamAt, App.GenerateAt).
const SourceGenerateAt = "genat"

func (k TraceKey) id() string {
	return fmt.Sprintf("trace/%s/app=%s&ranks=%d", k.Source, strings.ToLower(k.App), k.Ranks)
}

// AccKey addresses an accumulated matrix pair. It extends the trace key
// with the one option that changes matrix content, the collective
// strategy; coverage, parallelism, budgets, and spans never do and must
// stay out.
type AccKey struct {
	Source   string
	App      string
	Ranks    int
	Strategy mpi.Strategy
}

func (k AccKey) id() string {
	return fmt.Sprintf("acc/%s/app=%s&ranks=%d&strategy=%d",
		k.Source, strings.ToLower(k.App), k.Ranks, k.Strategy)
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
// Hits counts resident values and callers that shared another caller's
// generation; Misses counts generations run.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// Cache is the bounded artifact store. The zero value is not usable; use
// New. A nil *Cache disables caching.
type Cache struct {
	lru *LRU[any]
}

// New creates a cache bounded to max artifacts (DefaultMaxEntries when
// max <= 0).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Cache{lru: NewLRU[any](max)}
}

// Trace returns the cached trace for k, running gen exactly once across
// concurrent callers on a miss. Errors are returned to every concurrent
// waiter but are not stored: a later call retries. A nil cache calls gen
// directly. No program path caches a trace; the benchmark module's
// traced rebuilds call it.
func (c *Cache) Trace(k TraceKey, gen func() (*trace.Trace, error)) (*trace.Trace, error) {
	return get(c, k.id(), gen)
}

// Accumulated returns the cached matrix pair for k, running gen exactly
// once across concurrent callers on a miss. A nil cache calls gen
// directly.
func (c *Cache) Accumulated(k AccKey, gen func() (*comm.Accumulated, error)) (*comm.Accumulated, error) {
	return get(c, k.id(), gen)
}

// topoID keys a built topology by its structural parameters only: Build
// ignores Config.Size and Config.Nodes, and String() renders exactly the
// fields Build reads for each kind.
func topoID(cfg topology.Config) string {
	return "topo/" + cfg.Kind + cfg.String()
}

// Topology returns the cached built topology for cfg, building it
// exactly once across concurrent callers on a miss. Built topologies
// are immutable (routing tables are precomputed at construction and
// every Route variant takes a caller-owned buffer), so one instance is
// safe to share across concurrent analysis cells. A nil cache builds
// directly.
func (c *Cache) Topology(cfg topology.Config, gen func() (topology.Topology, error)) (topology.Topology, error) {
	return get(c, topoID(cfg), gen)
}

// Stats returns the current effectiveness counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := c.lru.Stats()
	return Stats{Hits: s.Hits + s.Shared, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}

// get is the typed lookup behind every accessor.
func get[T any](c *Cache, id string, gen func() (T, error)) (T, error) {
	if c == nil {
		return gen()
	}
	v, _, err := c.lru.Do(id, func() (any, error) { return gen() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}
