// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package trace

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// sendTrace is a trace of n point-to-point sends over 16 ranks.
func sendTrace(n int) *Trace {
	t := &Trace{Meta: Meta{App: "alloc", Ranks: 16, WallTime: 1}, Events: make([]Event, n)}
	for i := range t.Events {
		t.Events[i] = Event{Rank: i % 16, Op: OpSend, Peer: (i + 1) % 16, Root: -1, Bytes: uint64(i), Start: uint64(i), End: uint64(i + 1)}
	}
	return t
}

// Decoding and encoding allocate per trace, never per event: each Reader
// and Writer keeps one record buffer, so reading or writing 10,000
// events allocates as many objects as 1,000.
func TestCodecAllocsDoNotGrowWithEvents(t *testing.T) {
	encoded := func(n int) []byte {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, sendTrace(n)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	allocs := func(fn func()) float64 {
		// The first collections of a process start the collector's worker
		// goroutines, which count as allocations: collect once before
		// measuring, so none starts during it.
		runtime.GC()
		return testing.AllocsPerRun(3, fn)
	}
	var read, written []float64
	for _, n := range []int{1000, 10000} {
		data, tr := encoded(n), sendTrace(n)
		read = append(read, allocs(func() {
			got, err := ReadTrace(bytes.NewReader(data))
			if err != nil || len(got.Events) != n {
				t.Fatalf("ReadTrace: %d events, %v", len(got.Events), err)
			}
		}))
		written = append(written, allocs(func() {
			if err := WriteTrace(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if read[0] != read[1] {
		t.Errorf("ReadTrace allocated %v objects for 1,000 events and %v for 10,000", read[0], read[1])
	}
	if written[0] != written[1] {
		t.Errorf("WriteTrace allocated %v objects for 1,000 events and %v for 10,000", written[0], written[1])
	}
}
