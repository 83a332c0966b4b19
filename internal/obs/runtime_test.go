package obs

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRuntimeSamplerRegistersSeries(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, time.Hour)
	defer s.Stop()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"netloc_runtime_goroutines",
		"netloc_runtime_heap_bytes",
		"netloc_runtime_gc_pauses_total",
		"netloc_runtime_gc_pause_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}
}

// TestRuntimeSamplerValues checks the constructor's immediate sample
// leaves plausible values and that GC activity moves the counters.
func TestRuntimeSamplerValues(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, time.Hour)
	defer s.Stop()

	snap := s.Snapshot()
	if snap.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", snap.Goroutines)
	}
	if snap.HeapBytes < 1 {
		t.Errorf("heap_bytes = %d, want >= 1", snap.HeapBytes)
	}

	before := snap.GCPauses
	runtime.GC()
	runtime.GC()
	s.Sample()
	after := s.Snapshot()
	if after.GCPauses < before+2 {
		t.Errorf("gc_pauses = %d after two forced GCs (was %d)", after.GCPauses, before)
	}
	if after.GCPauseSeconds < 0 {
		t.Errorf("gc_pause_seconds = %g, want >= 0", after.GCPauseSeconds)
	}
}

// TestRuntimeSamplerPeriodic runs the goroutine with a tiny interval and
// waits for a tick-driven sample to land.
func TestRuntimeSamplerPeriodic(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, time.Millisecond)
	s.goroutines.Set(-1) // sentinel a tick must overwrite
	s.Start()
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Goroutines == -1 {
		if time.Now().After(deadline) {
			t.Fatal("no periodic sample within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // double Stop is safe
}

func TestRuntimeSamplerStopWithoutStart(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, time.Hour)
	s.Stop() // must not hang waiting for a goroutine that never ran
	s.Stop()
}

func TestRuntimeSamplerStartTwice(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, time.Hour)
	s.Start()
	s.Start()
	s.Stop()
}

func TestRuntimeSamplerDefaultInterval(t *testing.T) {
	reg := NewRegistry()
	s := NewRuntimeSampler(reg, 0)
	defer s.Stop()
	if got := s.interval; got != DefaultRuntimeSampleInterval {
		t.Errorf("interval = %v, want default %v", got, DefaultRuntimeSampleInterval)
	}
}
