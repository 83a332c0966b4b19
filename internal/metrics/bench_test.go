package metrics

import (
	"testing"

	"netloc/internal/comm"
)

func benchMatrix(b *testing.B, ranks int) *comm.Matrix {
	b.Helper()
	builder, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for k := 1; k <= 26; k++ {
			if err := builder.Add(r, (r+k*3)%ranks, uint64(100000/k)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return builder.Matrix()
}

func BenchmarkRankDistance(b *testing.B) {
	m := benchMatrix(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RankDistance(m, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectivity(b *testing.B) {
	m := benchMatrix(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Selectivity(m, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeers(b *testing.B) {
	m := benchMatrix(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak, _ := Peers(m)
		if peak == 0 {
			b.Fatal("no peers")
		}
	}
}

func BenchmarkDimLocality3D(b *testing.B) {
	m := benchMatrix(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DimLocality(m, 3, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCumulativeCurve(b *testing.B) {
	m := benchMatrix(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CumulativeCurve(m); err != nil {
			b.Fatal(err)
		}
	}
}
