package obs

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRuntimeSampleInterval is the sampling period RuntimeSampler
// applies when given a non-positive interval.
const DefaultRuntimeSampleInterval = 10 * time.Second

// RuntimeSampler periodically samples the Go runtime — goroutine count,
// heap in use, GC activity — into registry series, giving a long-lived
// daemon its process-health signal next to the request metrics:
//
//	netloc_runtime_goroutines       gauge    live goroutines
//	netloc_runtime_heap_bytes       gauge    heap bytes in use (HeapAlloc)
//	netloc_runtime_gc_pauses_total  counter  completed GC cycles
//	netloc_runtime_gc_pause_seconds counter  cumulative stop-the-world pause time
//
// The sampler is opt-in: nothing registers these series unless a
// sampler is constructed, so test servers and embedders that don't ask
// for one see byte-identical /metrics output.
type RuntimeSampler struct {
	interval   time.Duration
	goroutines *Gauge
	heap       *Gauge
	gcPauses   *Counter

	pauseSecBits atomic.Uint64 // float64 bits: total GC pause seconds

	mu        sync.Mutex
	lastNumGC uint32

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool
	stop      chan struct{}
	done      chan struct{}
}

// NewRuntimeSampler registers the runtime series on reg and takes one
// immediate sample so they are populated before the first tick. Call
// Start to begin periodic sampling and Stop to end it.
func NewRuntimeSampler(reg *Registry, interval time.Duration) *RuntimeSampler {
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	s := &RuntimeSampler{
		interval:   interval,
		goroutines: reg.Gauge("netloc_runtime_goroutines", "Goroutines currently live (sampled)."),
		heap:       reg.Gauge("netloc_runtime_heap_bytes", "Heap bytes in use (sampled runtime.MemStats HeapAlloc)."),
		gcPauses:   reg.Counter("netloc_runtime_gc_pauses_total", "Garbage-collection cycles completed since process start."),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	reg.CounterFunc("netloc_runtime_gc_pause_seconds", "Cumulative stop-the-world GC pause time in seconds.",
		func() float64 { return math.Float64frombits(s.pauseSecBits.Load()) })
	s.Sample()
	return s
}

// Sample takes one sample immediately. The periodic loop calls it on
// every tick; tests call it directly so they never sleep.
func (s *RuntimeSampler) Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.goroutines.Set(int64(runtime.NumGoroutine()))
	s.heap.Set(int64(ms.HeapAlloc))
	s.pauseSecBits.Store(math.Float64bits(float64(ms.PauseTotalNs) / 1e9))
	s.mu.Lock()
	if d := ms.NumGC - s.lastNumGC; d > 0 {
		s.gcPauses.Add(int64(d))
	}
	s.lastNumGC = ms.NumGC
	s.mu.Unlock()
}

// Start launches the sampling goroutine. Starting twice is a no-op.
func (s *RuntimeSampler) Start() {
	s.startOnce.Do(func() {
		s.started = true
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.Sample()
				}
			}
		}()
	})
}

// Stop ends periodic sampling and waits for the goroutine to exit.
// Safe to call more than once, and before (or without) Start.
func (s *RuntimeSampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started {
		<-s.done
	}
}

// RuntimeSnapshot is the sampler's current view, rendered into the
// service's JSON /metrics document.
type RuntimeSnapshot struct {
	Goroutines     int64   `json:"goroutines"`
	HeapBytes      int64   `json:"heap_bytes"`
	GCPauses       int64   `json:"gc_pauses"`
	GCPauseSeconds float64 `json:"gc_pause_seconds"`
}

// Snapshot returns the most recently sampled values.
func (s *RuntimeSampler) Snapshot() RuntimeSnapshot {
	return RuntimeSnapshot{
		Goroutines:     s.goroutines.Value(),
		HeapBytes:      s.heap.Value(),
		GCPauses:       s.gcPauses.Value(),
		GCPauseSeconds: math.Float64frombits(s.pauseSecBits.Load()),
	}
}
