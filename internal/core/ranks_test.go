package core

import (
	"runtime"
	"strings"
	"testing"

	"netloc/internal/trace"
)

// hugeTrace declares 4,194,304 ranks and carries one message: a few
// dozen bytes of upload, and 453 MB of matrices had they been sized
// before the rank count was checked.
func hugeTrace() *trace.Trace {
	return &trace.Trace{
		Meta:   trace.Meta{App: "huge", Ranks: 1 << 22, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 8}},
	}
}

func TestAnalyzeTraceRefusesRanksBeforeSizing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := AnalyzeTrace(hugeTrace(), Options{Parallelism: 1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "core: 4194304 ranks: ") {
		t.Fatalf("err = %v, want the declared rank count refused", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the trace allocated %d KiB, want under 1 MiB", got>>10)
	}
}

func TestAnalyzeTraceRanksCaps(t *testing.T) {
	tr := hugeTrace()
	tr.Meta.Ranks = 100
	// MaxRanks is a ceiling for uploads too.
	_, err := AnalyzeTrace(tr, Options{Parallelism: 1, MaxRanks: 64})
	if err == nil || !strings.Contains(err.Error(), "outside [1, 64]") {
		t.Fatalf("MaxRanks 64: err = %v, want 100 ranks refused", err)
	}
	if _, err := AnalyzeTrace(tr, Options{Parallelism: 1, MaxRanks: 100}); err != nil {
		t.Fatalf("MaxRanks 100: %v", err)
	}
	// Above what topology.Configs can size (13,824 ranks), no analysis
	// runs.
	tr.Meta.Ranks = 13825
	if _, err := AnalyzeTrace(tr, Options{Parallelism: 1}); err == nil || !strings.Contains(err.Error(), "13824") {
		t.Fatalf("13,825 ranks: err = %v, want the fat-tree limit named", err)
	}
}

// wrappingTrace carries two 2^63-byte sends 0→1 and a 1,000-byte one:
// their sum wraps uint64 to 1,000 bytes.
func wrappingTrace() *trace.Trace {
	send := trace.Event{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 1 << 63}
	small := send
	small.Bytes = 1000
	return &trace.Trace{
		Meta:   trace.Meta{App: "wrap", Ranks: 2, WallTime: 1},
		Events: []trace.Event{send, send, small},
	}
}

// The trace passes trace.Validate, and used to be analyzed as 0.001 MB
// next to 4.5·10^15 torus packet hops; its byte sum must fail instead.
func TestAnalyzeTraceRefusesWrappingVolume(t *testing.T) {
	tr := wrappingTrace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeTrace(tr, Options{Parallelism: 1})
	if err == nil {
		t.Fatalf("analyzed: VolMB %v, torus packet hops %v", a.VolMB, a.Torus.PacketHops)
	}
	if !strings.Contains(err.Error(), "MaxVolume") {
		t.Fatalf("err = %v, want the volume ceiling named", err)
	}
}
