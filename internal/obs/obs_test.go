package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Start("child")
	if c != nil {
		t.Fatal("nil span returned a live child")
	}
	c.Add("k", 1)
	c.SetLabel("x")
	c.End()
	if d := c.Data(); d.Name != "" || d.Counts != nil {
		t.Fatalf("nil span data = %+v", d)
	}
}

func TestSpanTreeAndCounts(t *testing.T) {
	tr := NewTracer(4)
	root := tr.StartRun("run")
	gen := root.Start("generate")
	gen.Add("events", 10)
	gen.Add("events", 5)
	gen.SetLabel("LULESH/64")
	gen.End()
	acc := root.Start("accumulate")
	acc.Add("shards", 3)
	acc.End()
	root.End()

	runs := tr.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	d := runs[0].Root
	if d.Name != "run" || len(d.Children) != 2 {
		t.Fatalf("root = %+v", d)
	}
	if d.Children[0].Name != "generate" || d.Children[0].Counts["events"] != 15 {
		t.Errorf("generate = %+v", d.Children[0])
	}
	if d.Children[0].Label != "LULESH/64" {
		t.Errorf("label = %q", d.Children[0].Label)
	}
	if d.Children[1].Counts["shards"] != 3 {
		t.Errorf("accumulate = %+v", d.Children[1])
	}
	if d.DurationMS < 0 {
		t.Errorf("duration = %v", d.DurationMS)
	}
}

func TestTracerRingBoundedNewestFirst(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		s := tr.StartRun(fmt.Sprintf("run-%d", i))
		s.End()
	}
	runs := tr.Runs()
	if len(runs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(runs))
	}
	if runs[0].Name != "run-9" || runs[2].Name != "run-7" {
		t.Errorf("ring order = %q,%q,%q", runs[0].Name, runs[1].Name, runs[2].Name)
	}
	if runs[0].ID != 10 {
		t.Errorf("newest id = %d, want 10", runs[0].ID)
	}
	if tr.Recorded() != 10 {
		t.Errorf("recorded = %d, want 10", tr.Recorded())
	}
}

func TestSpanChildrenBounded(t *testing.T) {
	root := NewTracer(1).StartRun("run")
	for i := 0; i < maxChildren+7; i++ {
		root.Start("cell").End()
	}
	root.End()
	d := root.Data()
	if len(d.Children) != maxChildren {
		t.Errorf("children = %d, want %d", len(d.Children), maxChildren)
	}
	if d.DroppedChildren != 7 {
		t.Errorf("dropped = %d, want 7", d.DroppedChildren)
	}
}

func TestConcurrentSpanWriters(t *testing.T) {
	tr := NewTracer(2)
	root := tr.StartRun("run")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Start("cell")
				c.Add("n", 1)
				c.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	d := root.Data()
	if len(d.Children) != maxChildren {
		t.Errorf("children = %d, want cap %d", len(d.Children), maxChildren)
	}
	if len(d.Children)+d.DroppedChildren != 8*50 {
		t.Errorf("children+dropped = %d, want %d", len(d.Children)+d.DroppedChildren, 8*50)
	}
	for _, c := range d.Children {
		if c.Counts["n"] != 1 {
			t.Fatalf("child count = %d, want 1", c.Counts["n"])
		}
	}
}

func TestWriteSummaryAggregatesStages(t *testing.T) {
	tr := NewTracer(1)
	root := tr.StartRun("run")
	for i := 0; i < 3; i++ {
		c := root.Start("cell")
		g := c.Start("generate")
		g.Add("events", 100)
		g.End()
		c.End()
	}
	root.End()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, tr.Runs()[0].Root); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + run + cell + generate
		t.Fatalf("summary lines = %d:\n%s", len(lines), out)
	}
	var genLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "generate") {
			genLine = l
		}
	}
	if genLine == "" || !strings.Contains(genLine, "events=300") {
		t.Errorf("generate line = %q, want aggregated events=300\n%s", genLine, out)
	}
	fields := strings.Fields(genLine)
	if len(fields) < 3 || fields[1] != "3" {
		t.Errorf("generate calls = %v, want 3", fields)
	}
}

func TestEndTwiceKeepsFirstDuration(t *testing.T) {
	tr := NewTracer(1)
	s := tr.StartRun("run")
	s.End()
	first := s.Data().DurationMS
	s.End()
	if got := s.Data().DurationMS; got != first {
		t.Errorf("duration changed on double End: %v vs %v", got, first)
	}
	if len(tr.Runs()) != 1 {
		t.Errorf("double End recorded %d runs", len(tr.Runs()))
	}
}

func TestRunIDsMonotonicAndLookup(t *testing.T) {
	tr := NewTracer(2)
	var ids []int64
	for i := 0; i < 4; i++ {
		s := tr.StartRun("run")
		if s.RunID() != 0 {
			t.Errorf("RunID before End = %d, want 0", s.RunID())
		}
		s.End()
		ids = append(ids, s.RunID())
	}
	for i, id := range ids {
		if id != int64(i)+1 {
			t.Fatalf("run IDs = %v, want 1..4", ids)
		}
	}
	// The ring holds 2 entries: newest two resolvable, older ones gone.
	for _, id := range ids[2:] {
		rec, ok := tr.Run(id)
		if !ok {
			t.Fatalf("run %d not found in ring", id)
		}
		if rec.ID != id || rec.Root.Name != "run" {
			t.Errorf("Run(%d) = {ID: %d, Root: %q}", id, rec.ID, rec.Root.Name)
		}
	}
	for _, id := range ids[:2] {
		if _, ok := tr.Run(id); ok {
			t.Errorf("evicted run %d still resolvable", id)
		}
	}
	if _, ok := tr.Run(999); ok {
		t.Error("unknown run ID resolved")
	}
}

func TestRunIDNilAndUnrecordedSpans(t *testing.T) {
	var nilSpan *Span
	if nilSpan.RunID() != 0 {
		t.Error("nil span has a run ID")
	}
	tr := NewTracer(1)
	root := tr.StartRun("run")
	child := root.Start("stage")
	child.End()
	root.End()
	if child.RunID() != 0 {
		t.Errorf("child span got run ID %d; only roots are recorded", child.RunID())
	}
	if root.RunID() == 0 {
		t.Error("recorded root has no run ID")
	}
}
