// Package obs is the repo's dependency-free observability layer, shared
// by the CLI (cmd/locality -v), the daemon (cmd/netlocd, internal/service
// /metrics and /v1/debug/runs), and the library packages.
//
// It provides two independent pieces:
//
//   - A span/stage tracer (Span, Tracer): the analysis pipeline wraps its
//     stages — workload generation, accumulation, metric computation,
//     mapping, topology model runs, simulation — in nested spans carrying
//     durations and integer counts (events, packets, hops, bytes).
//     Completed root spans are kept in a bounded ring of recent runs that
//     the service serves at /v1/debug/runs and the CLI summarizes on
//     stderr. All span methods are safe on a nil receiver, so
//     uninstrumented call paths pay a single pointer test and allocate
//     nothing.
//
//   - A unified metrics registry (Registry, Counter, Gauge, Histogram in
//     registry.go): named, optionally labeled metrics rendered both as
//     JSON snapshots and as Prometheus text exposition (prom.go).
//
// Instrumentation never feeds back into analysis results: spans and
// metrics are write-only from the pipeline's point of view, so output
// bytes stay identical whether or not observability is attached (pinned
// by TestReportJSONUnchangedByInstrumentation).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxChildren bounds the recorded children of one span so a pathological
// grid cannot grow a run record without limit; further children still
// function (timings, counts) but are dropped from the recorded tree and
// tallied in DroppedChildren.
const maxChildren = 128

// Span is one timed stage of a pipeline run. Spans nest: Start creates a
// child recorded under its parent. The zero of the API is a nil *Span,
// on which every method is a no-op, so instrumented code needs no "is
// tracing on" branches.
type Span struct {
	name  string
	label string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	done     bool
	counts   map[string]int64
	children []*Span
	dropped  int
	onEnd    func(*Span)
	runID    int64
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Start creates and records a child span. Safe for concurrent use: grid
// cells running in parallel may Start children of one parent.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	if len(s.children) < maxChildren {
		s.children = append(s.children, c)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
	return c
}

// SetLabel attaches a free-form instance label (e.g. "LULESH/64") so
// repeated stages keep one aggregatable name while staying tellable
// apart in the run record.
func (s *Span) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.label = label
	s.mu.Unlock()
}

// Add accumulates an integer count (events, packets, hops, bytes) on the
// span.
func (s *Span) Add(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make(map[string]int64, 4)
	}
	s.counts[key] += v
	s.mu.Unlock()
}

// End freezes the span's duration. Ending twice keeps the first
// duration. Ending a root span created by Tracer.StartRun records the
// run in the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	onEnd := s.onEnd
	s.onEnd = nil
	s.mu.Unlock()
	if onEnd != nil {
		onEnd(s)
	}
}

// SpanData is the immutable, JSON-encodable snapshot of a span tree.
type SpanData struct {
	Name  string    `json:"name"`
	Label string    `json:"label,omitempty"`
	Start time.Time `json:"start"`
	// DurationMS is the stage wall time in milliseconds; for a span that
	// has not Ended yet it is the time elapsed so far.
	DurationMS      float64          `json:"duration_ms"`
	Counts          map[string]int64 `json:"counts,omitempty"`
	Children        []SpanData       `json:"children,omitempty"`
	DroppedChildren int              `json:"dropped_children,omitempty"`
	// Ended reports whether End() ran before this snapshot — the invariant
	// span-leak tests assert on error paths. Excluded from JSON so
	// /v1/debug/runs bytes are unchanged by its existence.
	Ended bool `json:"-"`
}

// Data snapshots the span tree. Safe to call concurrently with further
// Start/Add calls (each node locks itself).
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	d := SpanData{
		Name:            s.name,
		Label:           s.label,
		Start:           s.start,
		DroppedChildren: s.dropped,
		Ended:           s.done,
	}
	if s.done {
		d.DurationMS = float64(s.dur) / float64(time.Millisecond)
	} else {
		d.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if len(s.counts) > 0 {
		d.Counts = make(map[string]int64, len(s.counts))
		for k, v := range s.counts {
			d.Counts[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if len(children) > 0 {
		d.Children = make([]SpanData, len(children))
		for i, c := range children {
			d.Children[i] = c.Data()
		}
	}
	return d
}

// RunRecord is one completed root span in a tracer's ring.
type RunRecord struct {
	ID         int64     `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Root       SpanData  `json:"root"`
}

// Tracer collects completed pipeline runs in a bounded ring, newest
// last. A nil *Tracer is a valid no-op (StartRun returns a nil span).
type Tracer struct {
	mu   sync.Mutex
	cap  int
	seq  int64
	runs []RunRecord
}

// DefaultTracerRuns is the ring capacity NewTracer applies for
// capacity <= 0.
const DefaultTracerRuns = 32

// NewTracer creates a tracer whose ring keeps the most recent capacity
// runs (DefaultTracerRuns when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerRuns
	}
	return &Tracer{cap: capacity}
}

// StartRun opens a root span; its End() records the run into the ring.
func (t *Tracer) StartRun(name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	s.onEnd = t.record
	return s
}

func (t *Tracer) record(s *Span) {
	d := s.Data()
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.runs = append(t.runs, RunRecord{
		ID: id, Name: d.Name, Start: d.Start, DurationMS: d.DurationMS, Root: d,
	})
	if len(t.runs) > t.cap {
		t.runs = append(t.runs[:0], t.runs[len(t.runs)-t.cap:]...)
	}
	t.mu.Unlock()
	s.mu.Lock()
	s.runID = id
	s.mu.Unlock()
}

// RunID returns the ring ID assigned when this root span Ended (0 for
// child spans, spans not started through a tracer, or spans that have
// not Ended yet). Safe on a nil receiver.
func (s *Span) RunID() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runID
}

// Run returns the recorded run with the given ID, or false when the ID
// was never assigned or its run has already been evicted from the ring.
func (t *Tracer) Run(id int64) (RunRecord, bool) {
	if t == nil {
		return RunRecord{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.runs) - 1; i >= 0; i-- {
		if t.runs[i].ID == id {
			return t.runs[i], true
		}
	}
	return RunRecord{}, false
}

// Runs returns the recorded runs, newest first.
func (t *Tracer) Runs() []RunRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunRecord, len(t.runs))
	for i, r := range t.runs {
		out[len(t.runs)-1-i] = r
	}
	return out
}

// Recorded returns how many runs have ever been recorded (the ring may
// hold fewer).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// stageAgg aggregates all spans sharing one name for WriteSummary.
type stageAgg struct {
	name   string
	calls  int
	total  time.Duration
	counts map[string]int64
}

// WriteSummary renders a per-stage timing table of a span tree:
// every stage name is aggregated across the tree (a Table-3 grid runs
// "generate" dozens of times), with call counts, total duration, and
// summed counts. Stages appear in first-encounter (depth-first) order.
func WriteSummary(w io.Writer, d SpanData) error {
	var order []string
	aggs := map[string]*stageAgg{}
	var walk func(d SpanData)
	walk = func(d SpanData) {
		a := aggs[d.Name]
		if a == nil {
			a = &stageAgg{name: d.Name, counts: map[string]int64{}}
			aggs[d.Name] = a
			order = append(order, d.Name)
		}
		a.calls++
		a.total += time.Duration(d.DurationMS * float64(time.Millisecond))
		for k, v := range d.Counts {
			a.counts[k] += v
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(d)

	nameW, callsW, totalW := len("stage"), len("calls"), len("total")
	rows := make([][3]string, 0, len(order))
	for _, name := range order {
		a := aggs[name]
		row := [3]string{a.name, fmt.Sprintf("%d", a.calls), formatDuration(a.total)}
		rows = append(rows, row)
		if len(row[0]) > nameW {
			nameW = len(row[0])
		}
		if len(row[1]) > callsW {
			callsW = len(row[1])
		}
		if len(row[2]) > totalW {
			totalW = len(row[2])
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %*s  %*s  %s\n", nameW, "stage", callsW, "calls", totalW, "total", "counts"); err != nil {
		return err
	}
	for i, name := range order {
		a := aggs[name]
		keys := make([]string, 0, len(a.counts))
		for k := range a.counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for j, k := range keys {
			parts[j] = fmt.Sprintf("%s=%d", k, a.counts[k])
		}
		if _, err := fmt.Fprintf(w, "%-*s  %*s  %*s  %s\n",
			nameW, rows[i][0], callsW, rows[i][1], totalW, rows[i][2], strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

// formatDuration renders a duration compactly for summaries (µs below a
// millisecond, otherwise milliseconds with one decimal).
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
