package workcache_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/service"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
)

// TestTraceSingleflightStormRunsOneGeneration is the cold-start storm:
// many concurrent requests for the same missing artifact must run the
// generator exactly once, and every caller must receive the one shared
// value.
func TestTraceSingleflightStormRunsOneGeneration(t *testing.T) {
	c := workcache.New(0)
	k := workcache.TraceKey{Source: workcache.SourceGenerate, App: "storm", Ranks: 64}
	shared := &trace.Trace{}
	var gens atomic.Int64
	release := make(chan struct{})
	start := make(chan struct{})

	const callers = 32
	results := make([]*trace.Trace, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = c.Trace(k, func() (*trace.Trace, error) {
				gens.Add(1)
				<-release // hold the flight open so the storm piles up
				return shared, nil
			})
		}(i)
	}
	close(start)
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != shared {
			t.Fatalf("caller %d received a different trace pointer", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 || s.Entries != 1 {
		t.Fatalf("stats after storm = %+v, want 1 miss, %d hits, 1 entry", s, callers-1)
	}
}

// TestGeneratorErrorsAreNotCached pins the error-path contract: a failed
// generation is reported to the caller but never stored, so the next
// request retries and can succeed.
func TestGeneratorErrorsAreNotCached(t *testing.T) {
	c := workcache.New(0)
	k := workcache.TraceKey{Source: workcache.SourceGenerate, App: "flaky", Ranks: 8}
	boom := errors.New("boom")
	if _, err := c.Trace(k, func() (*trace.Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call error = %v, want %v", err, boom)
	}
	want := &trace.Trace{}
	got, err := c.Trace(k, func() (*trace.Trace, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry after error = (%p, %v), want (%p, nil)", got, err, want)
	}
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 0 hits, 1 entry", s)
	}
}

// TestPanicInGeneratorBecomesError checks that a panicking generator
// surfaces as an error (to every concurrent waiter) and does not wedge
// the key: the next call runs a fresh generation.
func TestPanicInGeneratorBecomesError(t *testing.T) {
	c := workcache.New(0)
	k := workcache.TraceKey{Source: workcache.SourceGenerate, App: "panicky", Ranks: 8}
	_, err := c.Trace(k, func() (*trace.Trace, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "panic in generator") {
		t.Fatalf("panicking generator returned %v, want a panic-in-generator error", err)
	}
	want := &trace.Trace{}
	got, err := c.Trace(k, func() (*trace.Trace, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("call after panic = (%p, %v), want (%p, nil)", got, err, want)
	}
}

// TestEvictionUnderSmallCap drives the LRU past a tiny bound and checks
// that the oldest artifact is evicted (and regenerated on the next
// request) while the rest stay resident.
func TestEvictionUnderSmallCap(t *testing.T) {
	c := workcache.New(2)
	gens := map[string]int{}
	get := func(app string) {
		t.Helper()
		k := workcache.TraceKey{Source: workcache.SourceGenerate, App: app, Ranks: 1}
		if _, err := c.Trace(k, func() (*trace.Trace, error) {
			gens[app]++
			return &trace.Trace{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("c") // cap 2: evicts "a"
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats after overflow = %+v, want 1 eviction, 2 entries", s)
	}
	get("b") // hit: must not regenerate
	get("a") // evicted: must regenerate (and evict "c", the new oldest)
	if gens["a"] != 2 || gens["b"] != 1 || gens["c"] != 1 {
		t.Fatalf("generation counts = %v, want a:2 b:1 c:1", gens)
	}
}

// TestNilCacheDisablesCaching: a nil *Cache is the documented off
// switch — every call runs its generator and no stats accrue.
func TestNilCacheDisablesCaching(t *testing.T) {
	var c *workcache.Cache
	k := workcache.TraceKey{Source: workcache.SourceGenerate, App: "off", Ranks: 1}
	gens := 0
	for i := 0; i < 2; i++ {
		if _, err := c.Trace(k, func() (*trace.Trace, error) {
			gens++
			return &trace.Trace{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if gens != 2 {
		t.Fatalf("nil cache ran generator %d times, want 2", gens)
	}
	if s := c.Stats(); s != (workcache.Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", s)
	}
}

// TestSourceKeysSeparateGenerators pins the contamination guard: the
// same (app, ranks) under different sources are distinct artifacts, so
// an extrapolated trace can never satisfy an exact-scale lookup — and
// in particular a failing exact generation stays failing even when the
// extrapolated artifact is already cached.
func TestSourceKeysSeparateGenerators(t *testing.T) {
	c := workcache.New(0)
	at := &trace.Trace{}
	kAt := workcache.TraceKey{Source: workcache.SourceGenerateAt, App: "AMG", Ranks: 1000}
	if _, err := c.Trace(kAt, func() (*trace.Trace, error) { return at, nil }); err != nil {
		t.Fatal(err)
	}
	kGen := workcache.TraceKey{Source: workcache.SourceGenerate, App: "AMG", Ranks: 1000}
	boom := errors.New("unconfigured scale")
	if _, err := c.Trace(kGen, func() (*trace.Trace, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("exact-scale lookup returned %v, want the generator's error (not the extrapolated artifact)", err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses, 0 hits", s)
	}
}

// TestTopologyMemoizedByStructuralParams: the same structural
// configuration yields the one shared built instance (topologies are
// read-only after Build, so sharing is safe), while a different kind
// with otherwise identical parameters is a distinct artifact.
func TestTopologyMemoizedByStructuralParams(t *testing.T) {
	c := workcache.New(0)
	cfg, _, _, err := topology.Configs(64)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Topology(cfg, cfg.Build)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Topology(cfg, func() (topology.Topology, error) {
		t.Error("generator ran for a cached topology")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("cached topology lookup returned a different instance")
	}
	mesh := cfg
	mesh.Kind = "mesh" // same X/Y/Z, different kind: must not collide
	other, err := c.Topology(mesh, mesh.Build)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("mesh and torus with equal dimensions shared one artifact")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 2 entries", s)
	}
}

// TestConcurrentMixedTrafficSharedCache hammers one small-capped cache
// with concurrent core analyses and design searches while a service
// instance (with its own internal artifact cache) serves analysis
// requests — the -race workout for the storm, hit, and eviction paths
// under realistic mixed traffic.
func TestConcurrentMixedTrafficSharedCache(t *testing.T) {
	cache := workcache.New(4) // small cap: force eviction churn under load
	srv := httptest.NewServer(service.New(service.Options{Workers: 2}))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 3; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for _, ref := range []struct {
				app   string
				ranks int
			}{{"LULESH", 64}, {"MiniFE", 144}, {"LULESH", 64}} {
				_, err := core.AnalyzeApp(ref.app, ref.ranks, core.Options{Cache: cache})
				if err != nil {
					errs <- err
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Pinned to the paper trio: a full-family sweep churns enough
			// distinct artifact keys through the cap-4 cache that the
			// analyze goroutine's repeat lookups can evict before hitting.
			req := design.Request{
				App: "milc", Ranks: 64,
				Families:    []string{"torus", "fattree", "dragonfly"},
				Constraints: design.Constraints{MaxCandidates: 2},
			}
			if _, err := design.Search(req, core.Options{Cache: cache}); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			for _, path := range []string{"/v1/analyze?app=LULESH&ranks=64", "/v1/analyze?app=MiniFE&ranks=144"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					errs <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := cache.Stats()
	if s.Misses == 0 {
		t.Fatalf("mixed traffic produced no cache activity: %+v", s)
	}
	if s.Entries > 4 {
		t.Fatalf("cache exceeded its bound: %+v", s)
	}
	// Whether the storm itself scored hits depends on eviction timing
	// under the tiny cap, so assert hit accounting on the quiet cache:
	// one analysis stores 4 artifacts (its matrices and three
	// topologies), all resident under the cap of 4, and an immediate
	// repeat must hit.
	if _, err := core.AnalyzeApp("LULESH", 64, core.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := core.AnalyzeApp("LULESH", 64, core.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Hits <= before.Hits {
		t.Fatalf("repeat analysis on a quiet cache missed: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("repeat analysis on a quiet cache regenerated artifacts: %+v -> %+v", before, after)
	}
}
