package workloads

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/simnet"
	"netloc/internal/trace"
)

// An invalid generated event fails the stream at that event, as
// "generated invalid trace: event N", after a batch holding the events
// before it; a consumer reports the same error.
func TestStreamInvalidEventFails(t *testing.T) {
	open := func() trace.Source {
		sp := newSpec(Scale{Ranks: 4, VolMB: 1, RateMBps: 1, P2PPct: 100})
		sp.name = "broken"
		sp.send(0, 1, 1, 3)
		sp.send(2, 7, 1, 1) // peer outside the 4 ranks
		s, err := sp.stream()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const want = "workloads: broken generated invalid trace: event 3: trace: peer 7 out of range [0,4)"
	batch, err := open().Next()
	if err == nil || err.Error() != want || len(batch) != 3 {
		t.Fatalf("Next = %d events, %v; want 3 events and %q", len(batch), err, want)
	}
	if _, err := trace.Collect(open()); err == nil || err.Error() != want {
		t.Errorf("Collect: %v, want %q", err, want)
	}
	if _, err := comm.AccumulateStream(open(), comm.AccumulateOptions{}); err == nil || err.Error() != want {
		t.Errorf("AccumulateStream: %v, want %q", err, want)
	}
	if _, err := simnet.PrepareStream(open()); err == nil || err.Error() != want {
		t.Errorf("PrepareStream: %v, want %q", err, want)
	}
}
