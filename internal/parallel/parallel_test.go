package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			r := Runner{max: workers, budget: NewBudget(workers - 1)}
			hits := make([]atomic.Int32, n)
			r.ForEach(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestSeqRunnerIsSequential(t *testing.T) {
	r := Seq()
	if w := r.Workers(); w != 1 {
		t.Fatalf("Seq().Workers() = %d, want 1", w)
	}
	var order []int
	r.ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order broken: %v", order)
		}
	}
}

func TestZeroValueRunnerIsSequential(t *testing.T) {
	var r Runner
	if w := r.Workers(); w != 1 {
		t.Fatalf("zero Runner Workers() = %d, want 1", w)
	}
	sum := 0
	r.ForEach(4, func(i int) { sum += i })
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		r := Runner{max: workers, budget: NewBudget(workers - 1)}
		err := r.ForEachErr(100, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("workers=%d: err = %v, want index 3", workers, err)
		}
	}
}

func TestForEachErrNilOnSuccess(t *testing.T) {
	r := New(4)
	if err := r.ForEachErr(50, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachErrStopsDispatchAfterFailure(t *testing.T) {
	// After an error is observed, undispatched chunks must be skipped:
	// with one worker the failure at index 0 must prevent visits far
	// beyond the failing chunk.
	r := Seq()
	var visited atomic.Int32
	err := r.ForEachErr(10000, func(i int) error {
		visited.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if v := visited.Load(); v >= 10000 {
		t.Fatalf("visited all %d indexes despite early error", v)
	}
}

func TestBudgetCapsConcurrency(t *testing.T) {
	const cap = 3
	b := NewBudget(cap)
	if b.Cap() != cap {
		t.Fatalf("Cap() = %d, want %d", b.Cap(), cap)
	}
	// Runner extras draw from the budget; the caller participates for
	// free, so at most cap+1 bodies run at once.
	r := Shared(b, 16)
	var cur, max atomic.Int32
	var mu sync.Mutex
	r.ForEach(200, func(int) {
		c := cur.Add(1)
		mu.Lock()
		if c > max.Load() {
			max.Store(c)
		}
		mu.Unlock()
		cur.Add(-1)
	})
	if m := max.Load(); m > cap+1 {
		t.Fatalf("observed %d concurrent bodies, budget allows %d", m, cap+1)
	}
}

func TestBudgetTryAcquireExhaustion(t *testing.T) {
	b := NewBudget(2)
	if !b.TryAcquire() || !b.TryAcquire() {
		t.Fatal("fresh budget refused tokens")
	}
	if b.TryAcquire() {
		t.Fatal("exhausted budget granted a token")
	}
	b.Release()
	if !b.TryAcquire() {
		t.Fatal("released token not reusable")
	}
	b.Release()
	b.Release()
}

func TestNewBudgetMinimumCapacity(t *testing.T) {
	for _, c := range []int{-5, 0, 1} {
		if got := NewBudget(c).Cap(); got < 1 {
			t.Fatalf("NewBudget(%d).Cap() = %d, want >= 1", c, got)
		}
	}
}

func TestSharedNilBudgetFallsBackToSequential(t *testing.T) {
	r := Shared(nil, 8)
	if w := r.Workers(); w != 1 {
		t.Fatalf("Shared(nil, 8).Workers() = %d, want 1", w)
	}
}

func TestBudgetStatsCounters(t *testing.T) {
	b := NewBudget(2)
	b.Acquire()
	if !b.TryAcquire() {
		t.Fatal("second token refused")
	}
	if b.TryAcquire() {
		t.Fatal("exhausted budget granted a token")
	}
	s := b.Stats()
	if s.Capacity != 2 || s.InUse != 2 {
		t.Errorf("stats = %+v, want capacity 2 in use 2", s)
	}
	if s.Granted != 2 {
		t.Errorf("granted = %d, want 2", s.Granted)
	}
	if s.Degraded != 1 {
		t.Errorf("degraded = %d, want 1", s.Degraded)
	}
	b.Release()
	b.Release()
	if got := b.InUse(); got != 0 {
		t.Errorf("in use = %d after release, want 0", got)
	}
}

func TestBudgetWaitObserver(t *testing.T) {
	b := NewBudget(1)
	var mu sync.Mutex
	var waits []time.Duration
	b.SetWaitObserver(func(d time.Duration) {
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
	})
	b.Acquire() // free token: zero wait
	done := make(chan struct{})
	go func() {
		b.Acquire() // blocks until the release below
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	b.Release()
	<-done
	b.Release()
	mu.Lock()
	defer mu.Unlock()
	if len(waits) != 2 {
		t.Fatalf("observed %d waits, want 2", len(waits))
	}
	if waits[0] != 0 {
		t.Errorf("fast-path wait = %v, want 0", waits[0])
	}
	if waits[1] < 10*time.Millisecond {
		t.Errorf("blocked wait = %v, want >= 10ms", waits[1])
	}
}

// TestBudgetDegradedCountedFromForEach pins that an exhausted shared
// budget shows up in Stats as degraded-to-caller events rather than
// extra goroutines.
func TestBudgetDegradedCountedFromForEach(t *testing.T) {
	b := NewBudget(1)
	b.Acquire() // hold the only token so ForEach cannot admit extras
	before := b.Stats().Degraded
	var n atomic.Int64
	Shared(b, 4).ForEach(64, func(i int) { n.Add(1) })
	b.Release()
	if n.Load() != 64 {
		t.Fatalf("ForEach covered %d indexes, want 64", n.Load())
	}
	if got := b.Stats().Degraded - before; got < 1 {
		t.Errorf("degraded delta = %d, want >= 1", got)
	}
}
