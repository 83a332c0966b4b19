package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"netloc/internal/core"
	"netloc/internal/obs"
	"netloc/internal/report"
	"netloc/internal/trace"
)

func TestExperimentsListed(t *testing.T) {
	names := Experiments()
	want := []string{"claims", "congestion", "fig1", "fig3", "fig4", "fig5", "score", "sim", "table1", "table2", "table3", "table4"}
	if len(names) != len(want) {
		t.Fatalf("experiments = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("experiments = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		desc, err := Describe(n)
		if err != nil || desc == "" {
			t.Errorf("Describe(%s) = %q, %v", n, desc, err)
		}
	}
	if _, err := Describe("nope"); !errors.Is(err, core.ErrNoSuchExperiment) {
		t.Fatalf("Describe(nope) err = %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := Run(&bytes.Buffer{}, Params{Experiment: "table99"})
	if !errors.Is(err, core.ErrNoSuchExperiment) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Params{Experiment: "table2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"(2,2,2)", "(48,3)", "13824", "(10,5,5)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestRunTable1CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Params{Experiment: "table1", CSV: true}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 39 { // header + 38 rows
		t.Fatalf("csv lines = %d, want 39", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Application,") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunFig1Defaults(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Params{Experiment: "fig1"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LULESH/64 rank 0") {
		t.Errorf("fig1 output: %s", buf.String())
	}
}

func TestRunFig1CustomWorkload(t *testing.T) {
	var buf bytes.Buffer
	err := Run(&buf, Params{Experiment: "fig1", App: "MiniFE", Ranks: 18, Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MiniFE/18 rank 4") {
		t.Errorf("fig1 output: %s", buf.String())
	}
}

func TestRunFig4Default(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Params{Experiment: "fig4"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "AMG/1728") {
		t.Errorf("fig4 output missing AMG/1728")
	}
}

func TestRunFig5MinRanksOverride(t *testing.T) {
	var buf bytes.Buffer
	// With a 1000-rank cutoff only the very largest configurations appear.
	if err := Run(&buf, Params{Experiment: "fig5", MinRanks: 1200}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1728") {
		t.Errorf("fig5 output missing 1728-rank rows:\n%s", out)
	}
	if strings.Contains(out, "LULESH") {
		t.Errorf("fig5 cutoff ignored:\n%s", out)
	}
}

func TestAnalyzeTraceFile(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "custom", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000},
			{Rank: 3, Op: trace.OpSend, Peer: 7, Root: -1, Bytes: 100},
		},
	}
	var buf bytes.Buffer
	if err := AnalyzeTraceFile(&buf, tr, Params{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "custom") {
		t.Errorf("trace analysis output:\n%s", out)
	}
}

func TestAnalyzeTraceFileBadTrace(t *testing.T) {
	bad := &trace.Trace{Meta: trace.Meta{Ranks: 0}}
	if err := AnalyzeTraceFile(&bytes.Buffer{}, bad, Params{}); err == nil {
		t.Fatal("bad trace accepted")
	}
}

// TestOutOfRangeCoverageFails: a nonzero coverage outside (0,1] fails
// before anything runs, on every path: experiments that never read it
// (table1, table2) or compute nothing that would refuse it (fig1, fig5),
// a trace analysis, and a RunAll sweep.
func TestOutOfRangeCoverageFails(t *testing.T) {
	params := func(exp string, cov float64) Params {
		return Params{Experiment: exp, App: "AMG", Ranks: 27, MinRanks: 27, Options: core.Options{Coverage: cov, MaxRanks: 27}}
	}
	tr := &trace.Trace{
		Meta:   trace.Meta{App: "custom", Ranks: 8, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000}},
	}
	for _, exp := range []string{"table1", "table2", "fig1", "fig5"} {
		if _, err := Collect(params(exp, 0.5)); err != nil {
			t.Fatalf("%s at coverage 0.5: %v", exp, err)
		}
	}
	for _, cov := range []float64{2, math.NaN(), -0.5} {
		for _, exp := range []string{"table1", "table2", "fig1", "fig5"} {
			if _, err := Collect(params(exp, cov)); err == nil || !strings.Contains(err.Error(), "coverage") {
				t.Errorf("%s at coverage %v: err = %v, want the coverage refused", exp, cov, err)
			}
		}
		if err := AnalyzeTraceFile(io.Discard, tr, params("", cov)); err == nil {
			t.Errorf("trace analysis at coverage %v accepted", cov)
		}
		if err := RunAll(t.TempDir(), params("", cov)); err == nil {
			t.Errorf("RunAll at coverage %v accepted", cov)
		}
	}
}

func TestRunAllWritesEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	if err := RunAll(dir, Params{CSV: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range Experiments() {
		info, err := os.Stat(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}

// TestRunAllLeavesOnlyFinishedFiles: a sweep that fails part-way leaves
// the outputs of the experiments before the failing one, each equal to
// its experiment's own output, and nothing else: no file, empty or
// partial, for the failing experiment and no temporary file. A sweep
// that fails on its first experiment leaves the directory empty.
func TestRunAllLeavesOnlyFinishedFiles(t *testing.T) {
	// fig1 reads the app; claims and congestion, which sort before it,
	// do not.
	p := Params{App: "no such app", Options: core.Options{MaxRanks: 27}}
	dir := t.TempDir()
	if err := RunAll(dir, p); err == nil || !strings.Contains(err.Error(), "harness: fig1:") {
		t.Fatalf("RunAll = %v, want fig1 to fail", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"claims.txt", "congestion.txt"}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	for _, name := range []string{"claims", "congestion"} {
		var want bytes.Buffer
		q := p
		q.Experiment = name
		if err := Run(&want, q); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s.txt differs from the experiment's output", name)
		}
	}

	dir = t.TempDir()
	if err := RunAll(dir, Params{Options: core.Options{Coverage: 2}}); err == nil {
		t.Fatal("RunAll at coverage 2 accepted")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a sweep failing on its first experiment left %d entries (%v)", len(entries), err)
	}
}

func TestRunAllBadDirectory(t *testing.T) {
	if err := RunAll("/nonexistent-dir-xyz", Params{Experiment: "table2"}); err == nil {
		t.Fatal("bad directory accepted")
	}
}

// TestUnknownExperimentErrorListsKnown pins the listing-style error: a
// typo'd experiment name must produce a message that names the typo and
// enumerates every valid experiment, for both Run and Collect.
func TestUnknownExperimentErrorListsKnown(t *testing.T) {
	for _, err := range []error{
		Run(&bytes.Buffer{}, Params{Experiment: "table99"}),
		func() error { _, err := Collect(Params{Experiment: "table99"}); return err }(),
	} {
		if !errors.Is(err, core.ErrNoSuchExperiment) {
			t.Fatalf("err = %v, want ErrNoSuchExperiment", err)
		}
		msg := err.Error()
		if !strings.Contains(msg, `"table99"`) {
			t.Errorf("error does not name the unknown experiment: %s", msg)
		}
		for _, name := range Experiments() {
			if !strings.Contains(msg, name) {
				t.Errorf("error listing missing %q: %s", name, msg)
			}
		}
	}
}

// TestExperimentsSortedAndMatchDispatch verifies the public listing is
// alphabetically sorted and in exact one-to-one correspondence with the
// dispatch map.
func TestExperimentsSortedAndMatchDispatch(t *testing.T) {
	names := Experiments()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Experiments() not sorted: %v", names)
	}
	if len(names) != len(experiments) {
		t.Fatalf("listing has %d names, dispatch map %d", len(names), len(experiments))
	}
	for _, name := range names {
		r, ok := experiments[name]
		if !ok {
			t.Errorf("listed experiment %q not dispatchable", name)
			continue
		}
		if r.description == "" || r.collect == nil || r.render == nil {
			t.Errorf("experiment %q incompletely wired", name)
		}
	}
}

// TestEveryExperimentBothFormats runs every experiment with CSV on and
// off (and as JSON) against a small rank cap, so the whole dispatch
// table is exercised quickly in one test.
func TestEveryExperimentBothFormats(t *testing.T) {
	for _, name := range Experiments() {
		for _, csv := range []bool{false, true} {
			var buf bytes.Buffer
			p := Params{Experiment: name, CSV: csv, Options: core.Options{MaxRanks: 64}}
			if err := Run(&buf, p); err != nil {
				t.Errorf("%s (csv=%v): %v", name, csv, err)
				continue
			}
			if buf.Len() == 0 {
				t.Errorf("%s (csv=%v): empty output", name, csv)
			}
		}
		var buf bytes.Buffer
		p := Params{Experiment: name, JSON: true, Options: core.Options{MaxRanks: 64}}
		if err := Run(&buf, p); err != nil {
			t.Errorf("%s (json): %v", name, err)
			continue
		}
		var envelope struct {
			Experiment string          `json:"experiment"`
			Rows       json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
			t.Errorf("%s: invalid JSON: %v", name, err)
			continue
		}
		if envelope.Experiment != name || len(envelope.Rows) == 0 {
			t.Errorf("%s: envelope = %q with %d-byte rows", name, envelope.Experiment, len(envelope.Rows))
		}
	}
}

// TestCollectMatchesRun verifies Collect returns the same typed rows Run
// renders: rendering Collect's rows through the JSON path must equal
// Run's JSON output byte for byte.
func TestCollectMatchesRun(t *testing.T) {
	p := Params{Experiment: "table4", Options: core.Options{MaxRanks: 64}}
	res, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.Rows.([]core.Table4Row)
	if !ok || len(rows) == 0 {
		t.Fatalf("rows = %T with %v", res.Rows, res.Rows)
	}
	fromCollect, err := report.JSONBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	q := p
	q.JSON = true
	if err := Run(&buf, q); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromCollect, buf.Bytes()) {
		t.Fatal("Collect + JSONBytes diverges from Run with Params.JSON")
	}
}

// TestReportJSONUnaffectedByInstrumentation pins the observability
// layer's determinism promise at the report level: attaching a span
// leaves the JSON output byte-identical, and the runtime block appears
// only when Params.Runtime opts in.
func TestReportJSONUnaffectedByInstrumentation(t *testing.T) {
	base := Params{Experiment: "table3", JSON: true, Options: core.Options{MaxRanks: 64}}
	var plain bytes.Buffer
	if err := Run(&plain, base); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Bytes(), []byte(`"runtime"`)) {
		t.Fatal("runtime block present without Params.Runtime")
	}

	tr := obs.NewTracer(1)
	root := tr.StartRun("instrumented")
	instrumented := base
	instrumented.Options.Span = root
	var instr bytes.Buffer
	if err := Run(&instr, instrumented); err != nil {
		t.Fatal(err)
	}
	root.End()
	if !bytes.Equal(plain.Bytes(), instr.Bytes()) {
		t.Fatal("attaching a span changed the report JSON")
	}

	withRuntime := base
	withRuntime.Runtime = true
	var rt bytes.Buffer
	if err := Run(&rt, withRuntime); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(plain.Bytes(), rt.Bytes()) {
		t.Fatal("Params.Runtime had no effect on the JSON output")
	}
	var envelope struct {
		Experiment string        `json:"experiment"`
		Runtime    *obs.SpanData `json:"runtime"`
	}
	if err := json.Unmarshal(rt.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Runtime == nil || envelope.Runtime.Name != "table3" {
		t.Fatalf("runtime block = %+v", envelope.Runtime)
	}
	if len(envelope.Runtime.Children) == 0 {
		t.Fatal("runtime block records no stages")
	}
}

// TestAnalyzeTraceFileJSON covers the JSON path of trace analysis.
func TestAnalyzeTraceFileJSON(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "custom", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 5000},
		},
	}
	var buf bytes.Buffer
	if err := AnalyzeTraceFile(&buf, tr, Params{JSON: true}); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Experiment string           `json:"experiment"`
		Rows       []*core.Analysis `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Experiment != "trace" || len(envelope.Rows) != 1 || envelope.Rows[0].App != "custom" {
		t.Fatalf("envelope = %+v", envelope)
	}
}
