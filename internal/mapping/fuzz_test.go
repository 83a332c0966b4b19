package mapping

import (
	"slices"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// FuzzGreedy checks Greedy's shortcuts against referenceGreedy, the
// search without them, on small random topologies and traffic. The first
// six values pick a configuration through topology.FoldConfig, as
// FuzzConfigBuild does; a kind one past topology.Kinds() wraps the folded
// dragonfly in Valiant routing, whose blocks are single nodes. Inputs
// whose topology does not build or has more than 64 nodes are skipped.
// traffic's first byte picks the rank count (2 up to the nodes) and each
// later triple of bytes records one message: source, destination and a
// size of at most 255 bytes, so ties and zero-byte partners are common.
func FuzzGreedy(f *testing.F) {
	kinds := topology.Kinds()
	dragonfly := slices.Index(kinds, "dragonfly")
	f.Fuzz(func(t *testing.T, kindSel, a, b, c, d int, seed uint64, traffic []byte) {
		valiant := kindSel == len(kinds)
		if valiant {
			kindSel = dragonfly
		}
		cfg := topology.FoldConfig(kindSel, a, b, c, d, seed)
		topo, err := cfg.Build()
		if err != nil || topo.Nodes() < 2 || topo.Nodes() > 64 || len(traffic) == 0 {
			return
		}
		if valiant {
			if topo, err = topology.NewValiant(topo.(*topology.Dragonfly), seed); err != nil {
				t.Fatal(err)
			}
		}
		ranks := 2 + int(traffic[0])%(topo.Nodes()-1)
		bld, err := comm.NewBuilder(ranks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for msg := traffic[1:]; len(msg) >= 3; msg = msg[3:] {
			src, dst := int(msg[0])%ranks, int(msg[1])%ranks
			if src != dst {
				if err := bld.Add(src, dst, uint64(msg[2])); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := bld.Matrix()
		got, err := Greedy(m, topo)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceGreedy(m, topo); !slices.Equal(got.NodeTable(), want) {
			t.Fatalf("%s: Greedy maps %d ranks to %v, the reference to %v", topo.Name(), ranks, got.NodeTable(), want)
		}
	})
}
