package congest

import (
	"testing"

	"netloc/internal/mapping"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

// genTrace generates a synthetic workload trace for simulator tests.
func genTrace(t *testing.T, app string, ranks int) *trace.Trace {
	t.Helper()
	a, err := workloads.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := a.Generate(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func torus(t *testing.T, x, y, z int) topology.Topology {
	t.Helper()
	topo, err := topology.NewTorus(x, y, z)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func consecutive(t *testing.T, ranks, nodes int) *mapping.Mapping {
	t.Helper()
	mp, err := mapping.Consecutive(ranks, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

// studyTorus is the torus the congestion study sizes for ranks.
func studyTorus(t *testing.T, ranks int) topology.Topology {
	t.Helper()
	cfg, err := topology.TorusConfig(ranks)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func fattree(t *testing.T, ranks int) topology.Topology {
	t.Helper()
	cfg, err := topology.FatTreeConfig(ranks)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func dragonfly(t *testing.T, ranks int) topology.Topology {
	t.Helper()
	cfg, err := topology.DragonflyConfig(ranks)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func slimfly(t *testing.T, q, p int) topology.Topology {
	t.Helper()
	topo, err := topology.NewSlimFly(q, p)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func jellyfish(t *testing.T, s, r, p int, seed uint64) topology.Topology {
	t.Helper()
	topo, err := topology.NewJellyfish(s, r, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func hyperx(t *testing.T, s1, s2, s3, p int) topology.Topology {
	t.Helper()
	topo, err := topology.NewHyperX(s1, s2, s3, p)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// sendTrace builds a trace of explicit point-to-point sends.
type send struct {
	src, dst int
	bytes    uint64
	start    uint64 // nanoseconds
}

func sendTrace(ranks int, sends []send) *trace.Trace {
	tr := &trace.Trace{Meta: trace.Meta{App: "synthetic", Ranks: ranks, WallTime: 1}}
	for _, s := range sends {
		tr.Events = append(tr.Events, trace.Event{
			Rank: s.src, Op: trace.OpSend, Peer: s.dst, Root: -1,
			Bytes: s.bytes, Start: s.start,
		})
	}
	return tr
}

// checkPath verifies a link path is a contiguous walk from src to dst.
func checkPath(t *testing.T, topo topology.Topology, src, dst int, path []int) {
	t.Helper()
	links := topo.Links()
	cur := src
	for i, li := range path {
		if li < 0 || li >= len(links) {
			t.Fatalf("path %d->%d hop %d: link %d out of range", src, dst, i, li)
		}
		l := links[li]
		switch cur {
		case l.A:
			cur = l.B
		case l.B:
			cur = l.A
		default:
			t.Fatalf("path %d->%d hop %d: link %d (%d-%d) does not touch vertex %d",
				src, dst, i, li, l.A, l.B, cur)
		}
	}
	if cur != dst {
		t.Fatalf("path %d->%d ends at vertex %d", src, dst, cur)
	}
}
