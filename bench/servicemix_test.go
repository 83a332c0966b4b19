package main

import (
	"bytes"
	"fmt"
	"testing"
)

var classNames = []string{"analyze", "upload", "congestion", "dedup"}

// bytes renders a schedule for comparison.
func (s schedule) bytes() []byte {
	var b bytes.Buffer
	for c, list := range s {
		for _, r := range list {
			fmt.Fprintf(&b, "%d %s %d %s %s\n", c, classNames[r.class], r.burst, r.key, sha(r.body)[:16])
		}
	}
	return b.Bytes()
}

func classCounts(s schedule) map[reqClass]int {
	n := map[reqClass]int{}
	for _, list := range s {
		for _, r := range list {
			n[r.class]++
		}
	}
	return n
}

func keyCounts(s schedule) map[string]int {
	n := map[string]int{}
	for _, list := range s {
		for _, r := range list {
			n[r.key]++
		}
	}
	return n
}

func TestScheduleIsSeeded(t *testing.T) {
	in, err := newMixInputs()
	if err != nil {
		t.Fatal(err)
	}
	a, b := newSchedule(in, 7), newSchedule(in, 7)
	if !bytes.Equal(a.bytes(), b.bytes()) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := newSchedule(in, 8)
	if bytes.Equal(a.bytes(), c.bytes()) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	ca, cc := classCounts(a), classCounts(c)
	for class := range classNames {
		if ca[reqClass(class)] != cc[reqClass(class)] {
			t.Errorf("%s: %d requests with seed 7, %d with seed 8", classNames[class], ca[reqClass(class)], cc[reqClass(class)])
		}
	}
	ka, kc := keyCounts(a), keyCounts(c)
	for k, n := range ka {
		if kc[k] != n {
			t.Errorf("%s: asked %d times with seed 7, %d with seed 8", k, n, kc[k])
		}
	}
}

func TestScheduleShape(t *testing.T) {
	in, err := newMixInputs()
	if err != nil {
		t.Fatal(err)
	}
	if len(in.analyze) <= 256 {
		t.Errorf("%d analyze keys: the 256-entry result cache would never evict", len(in.analyze))
	}
	s := newSchedule(in, 1)
	n := classCounts(s)
	total := 0
	for _, v := range n {
		total += v
	}
	share := func(c reqClass) float64 { return float64(n[c]) / float64(total) }
	if u := share(classUpload); u < 0.08 || u > 0.12 {
		t.Errorf("upload share %.3f, want about 0.10", u)
	}
	if c := share(classCongestion); c < 0.01 || c > 0.03 {
		t.Errorf("congestion share %.3f, want about 0.02", c)
	}
	if n[classDedup] != serviceClients*dedupBursts {
		t.Errorf("%d dedup requests, want %d", n[classDedup], serviceClients*dedupBursts)
	}
	// Both clients meet the bursts in the same order, or the barriers
	// would deadlock.
	var order [serviceClients][]int
	for c, list := range s {
		for _, r := range list {
			if r.class == classDedup {
				order[c] = append(order[c], r.burst)
			}
		}
	}
	for i := range order[0] {
		if order[0][i] != i || order[1][i] != i {
			t.Fatalf("burst order %v and %v, want 0..%d in both", order[0], order[1], dedupBursts-1)
		}
	}
}

func TestLRUModelEvictsOldest(t *testing.T) {
	m := newLRUModel(2)
	for _, c := range []struct {
		key string
		hit bool
	}{{"a", false}, {"b", false}, {"a", true}, {"c", false}, {"b", false}, {"a", false}} {
		if got := m.touch(c.key); got != c.hit {
			t.Errorf("touch(%s) = %v, want %v", c.key, got, c.hit)
		}
	}
}

// A replay checks every response against its pin; a wrong pin fails
// the requests for that key, not the run.
func TestReplayGatesResponses(t *testing.T) {
	in, err := newMixInputs()
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.analyze[0], in.analyze[1]
	w := &serviceMix{in: in, pins: &pins{record: true, want: map[string]string{}}}
	w.sched = schedule{
		{a, burstOf(in.bursts[0], 0), b, in.uploads[0]},
		{a, burstOf(in.bursts[0], 0), in.congest[0], b},
	}
	if _, failed, err := w.unit(); failed != 0 || err != nil {
		t.Fatalf("recording replay: %d failed, %v", failed, err)
	}
	w.pins.record = false
	st, err := w.replay(true)
	if err != nil {
		t.Fatal(err)
	}
	if st.attempted != 8 || st.failed != 0 || len(st.samples) != 8 {
		t.Fatalf("checked replay: %d attempted, %d failed, %d samples", st.attempted, st.failed, len(st.samples))
	}
	// Three keys asked twice, one congestion body and one upload: a
	// repeat is served from the result cache or joins the computation.
	if n := st.metrics["compute"].(map[string]any)["executed"].(float64); n != 5 {
		t.Errorf("%v computations, want 5", n)
	}
	w.pins.want[b.key] = sha([]byte("not the response"))
	attempted, failed, err := w.unit()
	if attempted != 8 || failed != 2 || err == nil {
		t.Errorf("wrong pin for one key asked twice: %d attempted, %d failed, err %v", attempted, failed, err)
	}
}
