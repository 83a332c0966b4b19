package workcache_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netloc/internal/trace"
	"netloc/internal/workcache"
)

// value returns a generator that always succeeds with v.
func value(v string) func() (string, error) {
	return func() (string, error) { return v, nil }
}

// doWant calls Do and fails the test unless it returns want with outcome.
func doWant(t *testing.T, c *workcache.LRU[string], key, want string, outcome workcache.Outcome) {
	t.Helper()
	v, got, err := c.Do(key, value(want))
	if err != nil || v != want || got != outcome {
		t.Fatalf("Do(%q) = (%q, %v, %v), want (%q, %v, nil)", key, v, got, err, want, outcome)
	}
}

// waitFor polls until cond holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after 5s for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// lead starts a Do call that runs gen for key and returns once that call
// is in flight; the channel yields its error when it returns.
func lead(t *testing.T, c *workcache.LRU[string], key string, gen func() (string, error)) <-chan error {
	t.Helper()
	misses := c.Stats().Misses
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Do(key, gen)
		errc <- err
	}()
	waitFor(t, "the leader", func() bool { return c.Stats().Misses > misses })
	return errc
}

// waitShared blocks until n callers are waiting on in-flight generations.
func waitShared(t *testing.T, c *workcache.LRU[string], n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d waiters", n), func() bool { return c.Stats().Shared >= n })
}

// TestLRUHitRefreshesRecency: a hit makes its key the most recently
// used, so the eviction victim is the least recently used key, not the
// oldest insert.
func TestLRUHitRefreshesRecency(t *testing.T) {
	c := workcache.NewLRU[string](2)
	doWant(t, c, "a", "1", workcache.Miss)
	doWant(t, c, "b", "2", workcache.Miss)
	doWant(t, c, "a", "1", workcache.Hit) // b becomes the least recently used
	doWant(t, c, "c", "3", workcache.Miss)
	doWant(t, c, "a", "1", workcache.Hit)
	doWant(t, c, "c", "3", workcache.Hit)
	doWant(t, c, "b", "2", workcache.Miss) // evicted: generated again
	want := workcache.LRUStats{Hits: 3, Misses: 4, Evictions: 2, Entries: 2}
	if s := c.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestLRUSharesOneGeneration: callers that arrive while a key is being
// generated wait for that one generation and report Shared.
func TestLRUSharesOneGeneration(t *testing.T) {
	c := workcache.NewLRU[string](4)
	const waiters = 3
	release := make(chan struct{})
	var gens atomic.Int64
	gen := func() (string, error) {
		gens.Add(1)
		<-release
		return "v", nil
	}
	leader := lead(t, c, "k", gen)
	var wg sync.WaitGroup
	outcomes := make([]workcache.Outcome, waiters)
	values := make([]string, waiters)
	for i := range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, o, err := c.Do("k", gen)
			if err != nil {
				t.Error(err)
			}
			values[i], outcomes[i] = v, o
		}()
	}
	waitShared(t, c, waiters)
	close(release)
	wg.Wait()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("generations = %d, want 1", n)
	}
	for i := range waiters {
		if values[i] != "v" || outcomes[i] != workcache.Shared {
			t.Errorf("waiter %d = (%q, %v), want (\"v\", Shared)", i, values[i], outcomes[i])
		}
	}
}

// TestLRUPanicBecomesError: a panicking generator returns an error, is
// not stored, and leaves the key free for the next call.
func TestLRUPanicBecomesError(t *testing.T) {
	c := workcache.NewLRU[string](4)
	v, o, err := c.Do("k", func() (string, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") || v != "" || o != workcache.Miss {
		t.Fatalf("panicking Do = (%q, %v, %v), want a kaboom error from a Miss", v, o, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, o, err := c.Do("k", value("ok"))
		if err != nil || v != "ok" || o != workcache.Miss {
			t.Errorf("Do after panic = (%q, %v, %v), want (\"ok\", Miss, nil)", v, o, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do blocked after a panicking generation")
	}
	if s := c.Stats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses and 1 entry", s)
	}
}

// TestLRUPanicSharedByWaiters: a caller waiting on a generation that
// panics receives the same error.
func TestLRUPanicSharedByWaiters(t *testing.T) {
	c := workcache.NewLRU[string](4)
	release := make(chan struct{})
	leader := lead(t, c, "k", func() (string, error) {
		<-release
		panic("shared kaboom")
	})
	waiterDone := make(chan struct{})
	var waiterOutcome workcache.Outcome
	var waiterErr error
	go func() {
		defer close(waiterDone)
		_, waiterOutcome, waiterErr = c.Do("k", value("unused"))
	}()
	waitShared(t, c, 1)
	close(release)
	<-waiterDone
	if err := <-leader; err == nil || !strings.Contains(err.Error(), "shared kaboom") {
		t.Fatalf("leader err = %v, want the panic", err)
	}
	if waiterOutcome != workcache.Shared || waiterErr == nil || !strings.Contains(waiterErr.Error(), "shared kaboom") {
		t.Fatalf("waiter = (%v, %v), want the leader's panic error, Shared", waiterOutcome, waiterErr)
	}
	// The waiter counts as shared although the generation failed, and
	// nothing is stored.
	if s, want := c.Stats(), (workcache.LRUStats{Misses: 1, Shared: 1}); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// storm runs 16 goroutines making calls calls each over keys keys.
func storm(calls, keys int, do func(key int)) {
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				do((g + i) % keys)
			}
		}()
	}
	wg.Wait()
}

// TestLRUCountsEveryCallOnce: under a concurrent storm that evicts,
// shares and hits, every call lands in exactly one counter, both on the
// LRU and through Cache's hits-plus-shared view.
func TestLRUCountsEveryCallOnce(t *testing.T) {
	const calls, keys = 200, 5
	for round := range 20 {
		c := workcache.NewLRU[string](2)
		storm(calls, keys, func(key int) {
			k := fmt.Sprint(key)
			if _, _, err := c.Do(k, value(k)); err != nil {
				t.Error(err)
			}
		})
		if s := c.Stats(); s.Hits+s.Misses+s.Shared != 16*calls {
			t.Fatalf("round %d: LRU stats %+v count %d calls, want %d", round, s, s.Hits+s.Misses+s.Shared, 16*calls)
		}

		cache := workcache.New(2)
		storm(calls, keys, func(key int) {
			k := workcache.TraceKey{Source: workcache.SourceGenerate, App: "storm", Ranks: key}
			if _, err := cache.Trace(k, func() (*trace.Trace, error) { return &trace.Trace{}, nil }); err != nil {
				t.Error(err)
			}
		})
		if s := cache.Stats(); s.Hits+s.Misses != 16*calls {
			t.Fatalf("round %d: Cache stats %+v count %d calls, want %d", round, s, s.Hits+s.Misses, 16*calls)
		}
	}
}

// TestLRUNoDuplicateGeneration: while a key is resident or in flight no
// caller generates it again, so a storm over keys that all fit runs one
// generation per key.
func TestLRUNoDuplicateGeneration(t *testing.T) {
	const calls, keys = 50, 4
	for round := range 200 {
		c := workcache.NewLRU[string](256)
		var gens atomic.Int64
		storm(calls, keys, func(key int) {
			if _, _, err := c.Do(fmt.Sprint(key), func() (string, error) {
				gens.Add(1)
				return "v", nil
			}); err != nil {
				t.Error(err)
			}
		})
		if n := gens.Load(); n != keys {
			t.Fatalf("round %d: %d generations for %d keys", round, n, keys)
		}
	}
}
