package comm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// The mappers search one rank graph built from the matrix, so a traffic
// pattern maps the same whatever order its pairs were recorded in and
// whichever layout its rows are stored in. The test lives here because
// only comm's own test build can force a row layout (Relayout).
func TestMappersIgnoreRecordingOrderAndLayout(t *testing.T) {
	const ranks = 64
	type send struct {
		src, dst int
		bytes    uint64
	}
	rng := rand.New(rand.NewSource(18))
	var sends []send
	for r := 0; r < ranks; r++ {
		// A ring in both directions, plus a few long-range partners of
		// widely spread weight, some of them answered.
		sends = append(sends, send{r, (r + 1) % ranks, 1 << 20}, send{(r + 1) % ranks, r, 3 << 19})
		for k := 0; k < 3; k++ {
			dst := rng.Intn(ranks)
			if dst == r {
				continue
			}
			bytes := uint64(1) << (10 + rng.Intn(30))
			sends = append(sends, send{r, dst, bytes})
			if k == 0 {
				sends = append(sends, send{dst, r, bytes / 3})
			}
		}
	}
	build := func(order []send, dense bool) *comm.Matrix {
		b, err := comm.NewBuilder(ranks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range order {
			if err := b.Add(s.src, s.dst, s.bytes); err != nil {
				t.Fatal(err)
			}
		}
		m := b.Matrix()
		m.Relayout(dense)
		return m
	}
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mappers := map[string]func(*comm.Matrix) (*mapping.Mapping, error){
		"greedy": func(m *comm.Matrix) (*mapping.Mapping, error) { return mapping.Greedy(m, topo) },
		"refine": func(m *comm.Matrix) (*mapping.Mapping, error) {
			start, err := mapping.Random(ranks, topo.Nodes(), 3)
			if err != nil {
				return nil, err
			}
			return mapping.Refine(m, topo, start, 3)
		},
		"bisection": func(m *comm.Matrix) (*mapping.Mapping, error) { return mapping.Bisection(m, topo) },
		"optimize":  func(m *comm.Matrix) (*mapping.Mapping, error) { return mapping.Optimize(m, topo, 2) },
	}
	shuffled := append([]send(nil), sends...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	variants := map[string]*comm.Matrix{
		"shuffled sparse": build(shuffled, false),
		"dense":           build(sends, true),
		"shuffled dense":  build(shuffled, true),
	}
	for name, mapper := range mappers {
		want, err := mapper(build(sends, false))
		if err != nil {
			t.Fatal(err)
		}
		for variant, m := range variants {
			got, err := mapper(m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Table(), want.Table()) {
				t.Errorf("%s: %s matrix maps differently:\n%v\nvs\n%v", name, variant, got.Table(), want.Table())
			}
		}
	}
}
