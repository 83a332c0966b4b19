package simnet

import (
	"reflect"
	"sync"
	"testing"

	"netloc/internal/mapping"
)

// TestConcurrentReplaysShareOneWire: a Wire is immutable once prepared,
// so goroutines replaying one Wire on different topologies, the way a
// design search's fan-out shares its Wire across candidates, get the
// Stats sequential replays get. Run under -race it also pins that no
// replay writes to the shared Wire.
func TestConcurrentReplaysShareOneWire(t *testing.T) {
	const ranks = 100
	w, err := Prepare(genTrace(t, "Crystal Router", ranks))
	if err != nil {
		t.Fatal(err)
	}
	topos := oracleTopos(t, ranks)
	mps := make([]*mapping.Mapping, len(topos))
	for i, topo := range topos {
		mps[i] = consecutive(t, ranks, topo.Nodes())
	}
	type result struct{ full, lean *Stats }
	replay := func(i int) (r result, err error) {
		if r.full, err = w.Simulate(topos[i], mps[i], Options{}); err != nil {
			return r, err
		}
		r.lean, err = w.Load(topos[i], mps[i], Options{})
		return r, err
	}
	want := make([]result, len(topos))
	for i := range topos {
		if want[i], err = replay(i); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]result, len(topos))
	errs := make([]error, len(topos))
	var wg sync.WaitGroup
	for i := range topos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = replay(i)
		}(i)
	}
	wg.Wait()
	for i, topo := range topos {
		if errs[i] != nil {
			t.Fatalf("%s: %v", topo.Name(), errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent replay %+v %+v, sequential %+v %+v",
				topo.Name(), *got[i].full, *got[i].lean, *want[i].full, *want[i].lean)
		}
	}
}
