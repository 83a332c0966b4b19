package topology

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestDividerMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for d := 1; d <= 600; d++ {
		q := newDivider(d)
		for _, n := range []int{0, 1, d - 1, d, d + 1, 2*d - 1, 1<<31 - 1, 1<<32 - 1, 1<<32 - d} {
			if n >= 0 && q.div(n) != n/d {
				t.Fatalf("div(%d) by %d = %d, want %d", n, d, q.div(n), n/d)
			}
		}
		for i := 0; i < 200; i++ {
			n := int(rng.Uint32())
			if q.div(n) != n/d {
				t.Fatalf("div(%d) by %d = %d, want %d", n, d, q.div(n), n/d)
			}
		}
	}
}

// flow is one flow AccumulateFlows is handed.
type flow struct {
	src, dst                 int
	bytes, packets, messages uint64
}

// accumulate routes flows in the given order and returns the totals and
// link bytes.
func accumulate(t *testing.T, topo Topology, flows []flow) (FlowLoad, []uint64) {
	t.Helper()
	links := make([]uint64, len(topo.Links()))
	load, err := topo.AccumulateFlows(func(visit func(src, dst int, bytes, packets, messages uint64)) {
		for _, f := range flows {
			visit(f.src, f.dst, f.bytes, f.packets, f.messages)
		}
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	return load, links
}

// The load is a sum, so it cannot depend on the order flows arrive in:
// grouped by source (one route walk per key) or shuffled (a key routed
// again each time its source switch comes back) must agree, and so must
// a flow added once against the same flow added in two parts.
func TestAccumulateFlowsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := familyCases(t)
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewValiant(df, 3)
	if err != nil {
		t.Fatal(err)
	}
	tops := []Topology{v}
	for _, tc := range cases {
		tops = append(tops, tc.topo)
	}
	for _, topo := range tops {
		n := topo.Nodes()
		var grouped []flow
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d && rng.Intn(3) > 0 {
					grouped = append(grouped, flow{src: s, dst: d,
						bytes: uint64(rng.Intn(10000)), packets: uint64(rng.Intn(4)), messages: 1 + uint64(rng.Intn(3))})
				}
			}
		}
		load, links := accumulate(t, topo, grouped)
		if load.ByteHops == 0 {
			t.Fatalf("%s: no load", topo.Name())
		}

		shuffled := append([]flow(nil), grouped...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		split := make([]flow, 0, 2*len(shuffled))
		for _, f := range shuffled {
			half := f
			half.bytes, half.packets, half.messages = f.bytes/2, f.packets/2, f.messages/2
			f.bytes, f.packets, f.messages = f.bytes-half.bytes, f.packets-half.packets, f.messages-half.messages
			split = append(split, f, half)
		}
		for name, flows := range map[string][]flow{"shuffled": shuffled, "split": split} {
			gotLoad, gotLinks := accumulate(t, topo, flows)
			if gotLoad != load || !reflect.DeepEqual(gotLinks, links) {
				t.Fatalf("%s: %s flows give %+v, grouped %+v", topo.Name(), name, gotLoad, load)
			}
		}
	}
}

func TestAccumulateFlowsRejectsLinkCounters(t *testing.T) {
	for _, tc := range familyCases(t) {
		none := func(func(src, dst int, bytes, packets, messages uint64)) {}
		if _, err := tc.topo.AccumulateFlows(none, make([]uint64, len(tc.topo.Links())+1)); err == nil {
			t.Errorf("%s: accepted %d link counters for %d links", tc.topo.Name(), len(tc.topo.Links())+1, len(tc.topo.Links()))
		}
		if _, err := tc.topo.AccumulateFlows(none, nil); err != nil {
			t.Errorf("%s: hop totals without link counters: %v", tc.topo.Name(), err)
		}
	}
}
