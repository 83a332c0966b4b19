package netmodel

import (
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

func benchSetup(b *testing.B, ranks int) (*comm.Matrix, topology.Topology, *mapping.Mapping) {
	b.Helper()
	builder, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for k := 1; k <= 26; k++ {
			if err := builder.Add(r, (r+k*5)%ranks, 65536); err != nil {
				b.Fatal(err)
			}
		}
	}
	m := builder.Matrix()
	cfg, err := topology.TorusConfig(ranks)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	mp, err := mapping.Consecutive(ranks, topo.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	return m, topo, mp
}

func BenchmarkRunHopsOnly(b *testing.B) {
	m, topo, mp := benchSetup(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, topo, mp, Options{WallTime: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWithLinkTracking(b *testing.B) {
	m, topo, mp := benchSetup(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, topo, mp, Options{WallTime: 1, TrackLinks: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiCoreSeries(b *testing.B) {
	m, _, _ := benchSetup(b, 512)
	cores := []int{1, 2, 4, 8, 16, 32, 48}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultiCoreSeries(m, cores); err != nil {
			b.Fatal(err)
		}
	}
}
