package workcache

import (
	"container/list"
	"fmt"
	"sync"
)

// Outcome says how one LRU.Do call obtained its value.
type Outcome int

const (
	// Miss: the value was absent and this call ran the generator.
	Miss Outcome = iota
	// Hit: the value was resident.
	Hit
	// Shared: another call was already generating the value, and this
	// call waited for it and shares its value or error.
	Shared
)

// LRUStats is a point-in-time snapshot of an LRU's counters. Every Do
// call counts in exactly one of Hits, Misses and Shared.
type LRUStats struct {
	Hits      int64
	Misses    int64
	Shared    int64
	Evictions int64
	Entries   int
}

// LRU is a bounded, string-keyed, least-recently-used store that
// deduplicates concurrent generation: while one Do call generates a
// missing key, later callers of that key wait and share its result
// instead of generating again. One mutex guards the store, the
// in-flight calls and the counters, so a caller can never fall between
// a finished generation and its insert, and every call is counted once.
type LRU[V any] struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // of *lruEntry[V]; front = most recently used
	items  map[string]*list.Element
	flight map[string]*flightCall[V]
	stats  LRUStats // Entries is filled in by Stats
}

type lruEntry[V any] struct {
	key string
	val V
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// NewLRU creates an LRU holding at most max values (at least one).
func NewLRU[V any](max int) *LRU[V] {
	if max < 1 {
		max = 1
	}
	return &LRU[V]{
		max:    max,
		ll:     list.New(),
		items:  make(map[string]*list.Element, max),
		flight: make(map[string]*flightCall[V]),
	}
}

// Do returns the value for key. A resident value is a Hit and becomes
// the most recently used. When another call is already generating key,
// Do waits for it and shares its value or error (Shared). Otherwise Do
// runs gen itself (Miss) and stores the value only if gen succeeds, so
// a failed key is generated afresh by the next call. A panic in gen is
// returned as an error to this call and to every waiter, and never
// wedges the key.
func (c *LRU[V]) Do(key string, gen func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*lruEntry[V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if call, ok := c.flight[key]; ok {
		c.stats.Shared++
		c.mu.Unlock()
		call.wg.Wait()
		return call.val, Shared, call.err
	}
	call := new(flightCall[V])
	call.wg.Add(1)
	c.flight[key] = call
	c.stats.Misses++
	c.mu.Unlock()

	call.val, call.err = generate(gen)
	c.mu.Lock()
	delete(c.flight, key)
	if call.err == nil {
		c.add(key, call.val)
	}
	c.mu.Unlock()
	call.wg.Done()
	return call.val, Miss, call.err
}

// generate runs gen, turning a panic into an error.
func generate[V any](gen func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero V
			v, err = zero, fmt.Errorf("workcache: panic in generator: %v", r)
		}
	}()
	return gen()
}

// add inserts a key that is not resident, evicting the least recently
// used values beyond the bound. The caller holds c.mu.
func (c *LRU[V]) add(key string, v V) {
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		c.stats.Evictions++
	}
}

// Stats returns the current counters.
func (c *LRU[V]) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}
