package comm

import (
	"testing"

	"netloc/internal/trace"
)

// stencilTrace builds a LULESH-like p2p trace for accumulation benchmarks.
func stencilTrace(ranks, msgsPerPair int) *trace.Trace {
	t := &trace.Trace{Meta: trace.Meta{App: "bench", Ranks: ranks, WallTime: 1}}
	for r := 0; r < ranks; r++ {
		for _, d := range []int{1, -1, 8, -8, 64, -64} {
			peer := r + d
			if peer < 0 || peer >= ranks {
				continue
			}
			for m := 0; m < msgsPerPair; m++ {
				t.Events = append(t.Events, trace.Event{
					Rank: r, Op: trace.OpSend, Peer: peer, Root: -1, Bytes: 65536,
				})
			}
		}
	}
	return t
}

func collectiveTrace(ranks, calls int) *trace.Trace {
	t := &trace.Trace{Meta: trace.Meta{App: "bench", Ranks: ranks, WallTime: 1}}
	for c := 0; c < calls; c++ {
		for r := 0; r < ranks; r++ {
			t.Events = append(t.Events, trace.Event{
				Rank: r, Op: trace.OpAllreduce, Peer: -1, Root: -1, Bytes: 4096,
			})
		}
	}
	return t
}

func BenchmarkAccumulateStencil(b *testing.B) {
	t := stencilTrace(512, 10)
	b.ReportMetric(float64(len(t.Events)), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Accumulate(t, AccumulateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccumulateCollective(b *testing.B) {
	// 20 allreduce rounds on 256 ranks: the coalescing fast path expands
	// each rank's shape once instead of 20 times.
	t := collectiveTrace(256, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Accumulate(t, AccumulateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuilderAdd(b *testing.B) {
	m, err := NewBuilder(1024, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Add(i%1024, (i*7+1)%1024, 4096); err != nil && i%1024 != (i*7+1)%1024 {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatrixBySource(b *testing.B) {
	builder, err := NewBuilder(1024, 0)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < 1024; r++ {
		for k := 1; k <= 26; k++ {
			_ = builder.Add(r, (r+k)%1024, 4096)
		}
	}
	m := builder.Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsts, _ := m.BySource(i % 1024)
		if len(dsts) == 0 {
			b.Fatal("empty row")
		}
	}
}
