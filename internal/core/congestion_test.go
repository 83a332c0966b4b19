package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netloc/internal/congest"
	"netloc/internal/workcache"
)

// testCongestionRefs keeps the grid small enough for quick test runs
// while still covering two communication families.
var testCongestionRefs = []WorkloadRef{
	{App: "LULESH", Ranks: 64},
	{App: "BigFFT", Ranks: 100},
}

func TestCongestionTableGrid(t *testing.T) {
	rows, err := CongestionTable(testCongestionRefs, nil, nil, 0, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Grid order: workload, topology, policy — 2 refs x 3 topologies x 4
	// policies.
	if want := 2 * 3 * 4; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	policies := congest.Policies()
	topos := []string{"torus", "fattree", "dragonfly"}
	for i, r := range rows {
		ref := testCongestionRefs[i/12]
		if r.App != ref.App || r.Ranks != ref.Ranks {
			t.Fatalf("row %d: %s/%d, want %s/%d", i, r.App, r.Ranks, ref.App, ref.Ranks)
		}
		if want := topos[(i/4)%3]; r.Topology != want {
			t.Fatalf("row %d: topology %s, want %s", i, r.Topology, want)
		}
		if want := policies[i%4]; r.Policy != want {
			t.Fatalf("row %d: policy %s, want %s", i, r.Policy, want)
		}
		// The tolerance sweep rides only on the baseline rows.
		if r.Policy == congest.PolicyMinimal {
			if r.Tolerance == nil {
				t.Fatalf("row %d: baseline row missing tolerance sweep", i)
			}
		} else if r.Tolerance != nil {
			t.Fatalf("row %d: %s row carries a tolerance sweep", i, r.Policy)
		}
		if r.Messages == 0 || r.Makespan <= 0 {
			t.Fatalf("row %d: empty stats %+v", i, r.Stats)
		}
	}
}

// TestCongestionTableDeterministicAcrossWorkers pins the acceptance
// claim: the congestion grid is byte-identical at every worker count.
func TestCongestionTableDeterministicAcrossWorkers(t *testing.T) {
	seq, err := CongestionTable(testCongestionRefs, nil, nil, 0, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		par, err := CongestionTable(testCongestionRefs, nil, nil, 0, Options{
			Parallelism: workers, Cache: workcache.New(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("congestion grid differs between Parallelism 1 and %d", workers)
		}
	}
}

func TestCongestionTableOptions(t *testing.T) {
	// A negative growth threshold disables the tolerance sweep entirely.
	rows, err := CongestionTable(testCongestionRefs[:1], nil, []string{congest.PolicyMinimal}, -1, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per topology)", len(rows))
	}
	for i, r := range rows {
		if r.Tolerance != nil {
			t.Fatalf("row %d: tolerance present with the sweep disabled", i)
		}
	}
	// MaxRanks caps the grid like every other experiment driver.
	rows, err = CongestionTable(testCongestionRefs, nil, []string{congest.PolicyMinimal}, -1, Options{Parallelism: 1, MaxRanks: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ranks > 64 {
			t.Fatalf("MaxRanks 64 admitted %s/%d", r.App, r.Ranks)
		}
	}
	// Unknown policies surface congest's validation error.
	if _, err := CongestionTable(testCongestionRefs[:1], nil, []string{"psychic"}, -1, Options{Parallelism: 1}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Non-finite growth thresholds are rejected before any cell runs:
// NaN would otherwise skip the sweep silently (NaN >= 0 is false) and
// +Inf would run it into an unencodable result.
func TestCongestionTableRejectsNonFiniteGrowth(t *testing.T) {
	for _, g := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := CongestionTable(testCongestionRefs[:1], nil, []string{congest.PolicyMinimal}, g, Options{Parallelism: 1})
		if err == nil || !strings.Contains(err.Error(), "growth threshold") {
			t.Errorf("growth threshold %g: err = %v, want a growth threshold rejection", g, err)
		}
	}
}

// TestCongestionTableFamilies runs the grid on the extreme-scale
// families: the families argument replaces the paper trio and the rows
// keep grid order (workload, family, policy).
func TestCongestionTableFamilies(t *testing.T) {
	fams := []string{"slimfly", "jellyfish", "hyperx"}
	rows, err := CongestionTable(testCongestionRefs[:1], fams, []string{congest.PolicyMinimal}, -1, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fams) {
		t.Fatalf("rows = %d, want %d", len(rows), len(fams))
	}
	for i, r := range rows {
		if r.Topology != fams[i] {
			t.Fatalf("row %d: topology %s, want %s", i, r.Topology, fams[i])
		}
		if r.Messages == 0 || r.Makespan <= 0 {
			t.Fatalf("row %d: empty stats %+v", i, r.Stats)
		}
	}
	// Unknown families fail fast with the listing error from ConfigFor.
	if _, err := CongestionTable(testCongestionRefs[:1], []string{"moebius"}, nil, -1, Options{Parallelism: 1}); err == nil {
		t.Fatal("unknown family accepted")
	}
}
