// Package parallel is the work-scheduling engine behind the analysis
// pipeline's fan-out: a bounded token budget plus a chunked index loop
// with deterministic, index-addressed results.
//
// Two properties drive the design:
//
//   - Determinism. Workers pull contiguous index chunks from an atomic
//     cursor and write results only at their own indexes, so a parallel
//     run produces exactly the slice a sequential loop would — arrival
//     order never leaks into results, and floating-point reductions are
//     performed by the caller in index order.
//   - Composition. All fan-out levels (experiment grid, per-topology
//     runs, per-rank metric loops) share one Budget of worker tokens.
//     Extra workers are admitted with TryAcquire, never blocking, so
//     nested loops degrade to the calling goroutine instead of
//     oversubscribing or deadlocking. The analysis service passes its
//     request-admission budget here, making request-level and
//     intra-request parallelism draw from one pool.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Budget is a counting semaphore of worker tokens shared across
// concurrent analyses and their nested loops. It keeps its own
// scheduling counters (tokens granted, degraded-to-caller events) so an
// observability layer can report pool pressure without the budget
// depending on one.
type Budget struct {
	tokens chan struct{}

	granted  atomic.Int64
	degraded atomic.Int64
	// waitFn, when set, observes how long each blocking Acquire waited
	// for admission (zero for the non-blocking fast path). Set it once,
	// before the budget is shared across goroutines.
	waitFn func(time.Duration)
}

// NewBudget creates a budget with the given token capacity (minimum 1).
func NewBudget(capacity int) *Budget {
	if capacity < 1 {
		capacity = 1
	}
	return &Budget{tokens: make(chan struct{}, capacity)}
}

// Cap returns the budget's token capacity.
func (b *Budget) Cap() int { return cap(b.tokens) }

// InUse returns how many tokens are currently held.
func (b *Budget) InUse() int { return len(b.tokens) }

// SetWaitObserver installs fn to observe every Acquire's queue wait
// (zero when a token was free). Must be called before the budget is
// shared across goroutines; fn must be safe for concurrent use.
func (b *Budget) SetWaitObserver(fn func(time.Duration)) { b.waitFn = fn }

// BudgetStats is a point-in-time view of a budget's scheduling counters.
type BudgetStats struct {
	// Capacity and InUse describe the token pool right now.
	Capacity, InUse int
	// Granted counts tokens handed out over the budget's lifetime
	// (blocking Acquires plus successful TryAcquires).
	Granted int64
	// Degraded counts TryAcquire failures — nested loops that stayed on
	// the calling goroutine because the pool was exhausted.
	Degraded int64
}

// Stats samples the budget's counters.
func (b *Budget) Stats() BudgetStats {
	return BudgetStats{
		Capacity: cap(b.tokens),
		InUse:    len(b.tokens),
		Granted:  b.granted.Load(),
		Degraded: b.degraded.Load(),
	}
}

// Acquire blocks until a token is available. Used for top-level
// admission (one token per service request); nested loops must use
// TryAcquire instead so they can never deadlock against each other.
func (b *Budget) Acquire() {
	select {
	case b.tokens <- struct{}{}:
		b.granted.Add(1)
		if b.waitFn != nil {
			b.waitFn(0)
		}
		return
	default:
	}
	start := time.Now()
	b.tokens <- struct{}{}
	b.granted.Add(1)
	if b.waitFn != nil {
		b.waitFn(time.Since(start))
	}
}

// TryAcquire takes a token without blocking, reporting success. A
// failure is counted as a degraded-to-caller event: the would-be extra
// worker's share of the loop runs on the calling goroutine instead.
func (b *Budget) TryAcquire() bool {
	select {
	case b.tokens <- struct{}{}:
		b.granted.Add(1)
		return true
	default:
		b.degraded.Add(1)
		return false
	}
}

// Release returns a token taken by Acquire or TryAcquire.
func (b *Budget) Release() { <-b.tokens }

// Runner schedules an index loop over a bounded worker set. The zero
// value runs sequentially on the calling goroutine.
type Runner struct {
	max    int
	budget *Budget
}

// Seq returns the sequential runner.
func Seq() Runner { return Runner{} }

// New returns a runner with a worker cap but no shared budget (extra
// workers are always admitted up to the cap). max <= 0 selects
// GOMAXPROCS.
func New(max int) Runner {
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	return Runner{max: max}
}

// Shared returns a runner that admits extra workers only while the
// shared budget has spare tokens. max <= 0 selects GOMAXPROCS. A nil
// budget means no pool to draw from, so the runner is sequential.
func Shared(b *Budget, max int) Runner {
	if b == nil {
		return Seq()
	}
	if max <= 0 {
		max = runtime.GOMAXPROCS(0)
	}
	return Runner{max: max, budget: b}
}

// Workers returns the runner's worker cap including the caller (1 for
// the sequential runner).
func (r Runner) Workers() int {
	if r.max < 1 {
		return 1
	}
	return r.max
}

// chunkFactor oversplits the index space relative to the worker count
// so uneven per-index costs still balance.
const chunkFactor = 4

// ForEach runs fn(i) for every i in [0, n). The calling goroutine
// always participates; up to Workers()-1 extra goroutines join, each
// holding a budget token (when a budget is attached) for its lifetime.
// Indexes are handed out in contiguous chunks, so writes that fn makes
// at index i are deterministic regardless of schedule. ForEach returns
// after every index has been processed.
func (r Runner) ForEach(n int, fn func(i int)) {
	r.forEach(n, fn, nil)
}

// ForEachErr runs fn(i) for every i in [0, n) like ForEach and returns
// the error of the lowest failing index — the same error a sequential
// loop would have hit first. Once any index fails, undispatched chunks
// are skipped.
func (r Runner) ForEachErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	r.forEach(n, func(i int) {
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	}, &failed)
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (r Runner) forEach(n int, fn func(i int), stop *atomic.Bool) {
	if n <= 0 {
		return
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop != nil && stop.Load() {
				return
			}
			fn(i)
		}
		return
	}
	chunk := n / (workers * chunkFactor)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	loop := func() {
		for {
			if stop != nil && stop.Load() {
				return
			}
			start := int(cursor.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(i)
			}
		}
	}
	var wg sync.WaitGroup
	for extra := 0; extra < workers-1; extra++ {
		if r.budget != nil && !r.budget.TryAcquire() {
			break // budget exhausted: remaining work stays on the caller
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.budget != nil {
				defer r.budget.Release()
			}
			loop()
		}()
	}
	loop()
	wg.Wait()
}
