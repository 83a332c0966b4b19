package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netloc/internal/congest"
	"netloc/internal/obs"
	"netloc/internal/workloads"
)

// TestDriverCellSpans pins the cell contract once for all eight
// experiment grids. Under a MaxRanks cap each driver opens one ended
// "cell" span per configuration within the cap, labelled App/Ranks, and
// none for a configuration above it. The spans come in table order when
// sequential (at Parallelism 4 cells start in any order, so only the set
// is compared), and the rows are identical at Parallelism 1 and 4.
func TestDriverCellSpans(t *testing.T) {
	const maxRanks = 64
	within := func(refs []WorkloadRef, keep func(WorkloadRef) bool) []string {
		var labels []string
		for _, r := range refs {
			if r.Ranks <= maxRanks && keep(r) {
				labels = append(labels, fmt.Sprintf("%s/%d", r.App, r.Ranks))
			}
		}
		return labels
	}
	all := func(WorkloadRef) bool { return true }
	// Figure 3 draws each app once, at its largest scale within the cap.
	var largest []WorkloadRef
	for _, app := range workloads.All() {
		ranks := app.RankCounts()
		if i := len(ranks) - 1; ranks[0] <= maxRanks {
			for ranks[i] > maxRanks {
				i--
			}
			largest = append(largest, WorkloadRef{App: app.Name, Ranks: ranks[i]})
		}
	}
	drivers := []struct {
		name  string
		run   func(Options) (any, error)
		cells []string
	}{
		{"Table1", func(o Options) (any, error) { return Table1(o) }, within(AllConfigurations(), all)},
		{"Table3", func(o Options) (any, error) { return Table3(o) }, within(AllConfigurations(), all)},
		{"Table4", func(o Options) (any, error) { return Table4(o) }, within(Table4Workloads, all)},
		{"Figure3", func(o Options) (any, error) { return Figure3(o) }, within(largest, all)},
		{"Figure4", func(o Options) (any, error) { return Figure4("AMG", o) },
			within(AllConfigurations(), func(r WorkloadRef) bool { return r.App == "AMG" })},
		{"Figure5", func(o Options) (any, error) { return Figure5(27, o) },
			within(AllConfigurations(), func(r WorkloadRef) bool { return r.Ranks >= 27 })},
		{"SimTable", func(o Options) (any, error) { return SimTable(nil, o) }, within(SimWorkloads, all)},
		{"CongestionTable", func(o Options) (any, error) {
			return CongestionTable(nil, nil, []string{congest.PolicyMinimal}, -1, o)
		}, within(CongestionWorkloads, all)},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			if len(d.cells) == 0 {
				t.Fatal("no configuration within the cap: the case checks nothing")
			}
			var rows []any
			for _, workers := range []int{1, 4} {
				root := obs.NewTracer(1).StartRun(d.name)
				got, err := d.run(Options{MaxRanks: maxRanks, Parallelism: workers, Span: root})
				root.End()
				if err != nil {
					t.Fatalf("Parallelism %d: %v", workers, err)
				}
				rows = append(rows, got)
				var labels []string
				for _, c := range root.Data().Children {
					if c.Name != "cell" || !c.Ended {
						t.Errorf("Parallelism %d: child %q (%s) ended %v, want ended cells only", workers, c.Name, c.Label, c.Ended)
					}
					labels = append(labels, c.Label)
				}
				want := slices.Clone(d.cells)
				if workers > 1 {
					slices.Sort(labels)
					slices.Sort(want)
				}
				if !slices.Equal(labels, want) {
					t.Errorf("Parallelism %d: cells %v, want %v", workers, labels, want)
				}
			}
			if !reflect.DeepEqual(rows[0], rows[1]) {
				t.Error("rows differ between Parallelism 1 and 4")
			}
		})
	}
}
