// Command bench is netloc's end-to-end benchmark. It runs five
// workloads — table3-cold, table3-warm, congestion, design and
// service-mix — each in a child process of its own, checks every output
// against pinned values, and prints each metric with its unit. With
// -trace 1 it rebuilds each workload from the public calls of every
// layer instead and reports where the time and the allocations went.
//
// From the repository root:
//
//	bash bench/run.sh                                   # every workload once
//	bash bench/run.sh -workload design -seed 3 -seconds 10
//	bash bench/run.sh -runs 10 -seed 1 -out set.json    # ten runs per workload
//	bash bench/run.sh -trace 1 -out trace.json          # per-layer metrics
//	bash bench/run.sh compare parent.json change.json   # verdict per metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero if
// any output differs from its pin or any request fails. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart anchors the first set-up of a child: setup_s counts from
// the moment the process started running Go code.
var processStart = time.Now()

// setupRounds is how often a child sets its workload up before the timed
// units; setup_s is the median.
const setupRounds = 3

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// workloadList names the workloads in run order; BENCHMARK.json carries
// the same names and reasons.
var workloadList = []struct{ name, why string }{
	{"table3-cold", "paper Table 3 from scratch with no artifact cache: generate and accumulate take half the time"},
	{"table3-warm", "Table 3 over a workcache filled in set-up: netmodel and metrics dominate, generate never runs"},
	{"congestion", "subset of the default congestion study: LULESH/64 and Crystal Router/100, 3 families x 4 policies + 5% tolerance sweep; a fifth of the full study's time"},
	{"design", "LULESH/512 design search: 38 candidates, 7 families, consecutive and greedy mapping; the only simnet load"},
	{"service-mix", "HTTP service, 2 closed-loop clients: Zipf analyze keys past the 256-entry LRU, uploads, congestion, dedup bursts"},
}

// runner is one workload inside its child process.
type runner interface {
	// setup prepares the workload and runs its warm-up.
	setup() error
	// unit runs one timed unit: attempted operations and how many failed,
	// with the first failure.
	unit() (attempted, failed int, err error)
	// tracePair runs one unit sequentially through the program's entry
	// point and once rebuilt from per-layer calls, and returns the
	// per-layer metrics. An error is a failed pair.
	tracePair() (map[string]float64, error)
}

// finisher is a runner that adds metrics pooled over all traced pairs.
type finisher interface {
	finish(layers map[string]float64)
}

// newRunner returns a workload and, for the digest-gated ones, its pins
// (nil for the table3 workloads, which compare with results/table3.csv).
func newRunner(root, name string, seed int64, record bool) (runner, *pins, error) {
	switch name {
	case "table3-cold":
		return &table3{root: root}, nil, nil
	case "table3-warm":
		return &table3{root: root, warm: true}, nil, nil
	}
	p, err := loadPins(root, name, record)
	if err != nil {
		return nil, nil, err
	}
	switch name {
	case "congestion":
		return &congestion{pins: p}, p, nil
	case "design":
		return &designSearch{pins: p}, p, nil
	case "service-mix":
		return &serviceMix{seed: seed, pins: p}, p, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	runs     int
	out      string
	child    bool
	record   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; run i of -runs uses seed+i")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds of timed units per run")
	fs.IntVar(&o.trace, "trace", 0, "1: per-layer metrics from a traced rebuild")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, each in a fresh process")
	fs.StringVar(&o.out, "out", "", "write all runs with host metadata to this JSON file")
	fs.BoolVar(&o.record, "record", false, "record output pins under bench/testdata from this tree")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || o.runs < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds >= 1, -runs >= 1 and -trace 0 or 1")
		return 2
	}
	names, err := selected(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case o.child:
		return childMain(root, o, stdout)
	case o.record:
		return recordMain(root, names, stdout, stderr)
	}
	return parentMain(root, names, o, stdout, stderr)
}

func selected(name string) ([]string, error) {
	var names []string
	for _, w := range workloadList {
		if name == "" || name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		var known []string
		for _, w := range workloadList {
			known = append(known, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(known, ", "))
	}
	return names, nil
}

// findRoot walks up from the working directory to the netloc module, so
// the benchmark runs from the repository root or from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module netloc" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no netloc module (go.mod with \"module netloc\") above the working directory")
		}
		dir = parent
	}
}

// runResult is one run of one workload. A child process reports it on
// its standard output and the parent records it.
type runResult struct {
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Units     int                `json:"units"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func childMain(root string, o options, stdout io.Writer) int {
	res := runWorkload(root, o)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// samples are the measurements of one untraced run: one per set-up
// round and one per timed unit, and the requests the units completed.
type samples struct {
	setup, wall, cpu, allocBytes, allocObjects, rss []float64
	completed                                       int
}

// metrics reduces a run's samples to its end-to-end metrics.
//
// Per-unit metrics report the run's best unit. On a shared host,
// interference only ever adds time, and collector timing only ever adds
// resident memory, so the minimum repeats from run to run where the
// median does not. req_per_s is the throughput over all timed units: a
// grid unit is one request, a service-mix unit one replay of the
// schedule.
func (s *samples) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":    median(s.setup),
		"run_s":      minOf(s.wall),
		"cpu_s":      minOf(s.cpu),
		"req_per_s":  float64(s.completed) / sum(s.wall),
		"alloc_mb":   minOf(s.allocBytes) / 1e6,
		"allocs_k":   minOf(s.allocObjects) / 1e3,
		"max_rss_mb": minOf(s.rss) / 1e6,
	}
}

func runWorkload(root string, o options) *runResult {
	res := &runResult{Seed: o.seed}
	var s samples
	w, _, err := newRunner(root, o.workload, o.seed, false)
	if err == nil {
		rounds := setupRounds
		if o.trace == 1 {
			rounds = 1
		}
		for i := 0; i < rounds && err == nil; i++ {
			start := time.Now()
			if i == 0 {
				start = processStart
			}
			if err = w.setup(); err == nil {
				s.setup = append(s.setup, time.Since(start).Seconds())
			}
		}
	}
	if err != nil {
		res.Attempted = 1
		res.fail(fmt.Errorf("set-up: %w", err))
		return res
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	if o.trace == 1 {
		var pairs []map[string]float64
		for res.Attempted == 0 || time.Now().Before(deadline) {
			res.Attempted++
			runtime.GC()
			m, err := w.tracePair()
			if err != nil {
				res.fail(err)
				continue
			}
			pairs = append(pairs, m)
		}
		layers := medians(pairs)
		if f, ok := w.(finisher); ok && len(pairs) > 0 {
			f.finish(layers)
		}
		res.Units = res.Attempted
		res.Metrics = map[string]float64{}
		for _, d := range perLayer {
			res.Metrics[d.Name] = layers[d.Name]
		}
	} else {
		ac := newAllocCounters()
		for len(s.wall) == 0 || time.Now().Before(deadline) {
			// Every unit starts on a collected heap, with the peak-RSS mark
			// reset. The collection after it flushes the per-P allocation
			// counters, which otherwise lag by whole spans and blur the
			// counts of a small unit.
			runtime.GC()
			if err := resetPeakRSS(); err != nil {
				res.fail(err)
				break
			}
			b0, o0 := ac.read()
			c0 := cpuSeconds()
			start := time.Now()
			attempted, failed, unitErr := w.unit()
			wall := time.Since(start).Seconds()
			c1 := cpuSeconds()
			rss, err := peakRSS()
			if err != nil {
				res.fail(err)
				break
			}
			runtime.GC()
			b1, o1 := ac.read()
			s.wall = append(s.wall, wall)
			s.cpu = append(s.cpu, c1-c0)
			s.allocBytes = append(s.allocBytes, float64(b1-b0))
			s.allocObjects = append(s.allocObjects, float64(o1-o0))
			s.rss = append(s.rss, rss)
			s.completed += attempted - failed
			res.Attempted += attempted
			res.Failed += failed
			if unitErr != nil && len(res.Errors) < 5 {
				res.Errors = append(res.Errors, unitErr.Error())
			}
		}
		res.Units = len(s.wall)
		res.Metrics = s.metrics()
	}
	// JSON has no NaN. Only a run that timed no unit has one, and it
	// reads as failed whatever its metrics say.
	for k, v := range res.Metrics {
		if math.IsNaN(v) {
			res.Metrics[k] = 0
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// medians reduces per-pair metric maps to the median of each metric.
func medians(pairs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	if len(pairs) == 0 {
		return out
	}
	for k := range pairs[0] {
		var xs []float64
		for _, p := range pairs {
			xs = append(xs, p[k])
		}
		out[k] = median(xs)
	}
	return out
}

// cpuSeconds is the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// workloadRuns are all runs of one workload.
type workloadRuns struct {
	Name string      `json:"name"`
	Runs []runResult `json:"runs"`
}

// resultSet is the file -out writes and compare reads.
type resultSet struct {
	Host      hostInfo       `json:"host"`
	Seed      int64          `json:"seed"`
	Seconds   int            `json:"seconds"`
	Trace     bool           `json:"trace"`
	Workloads []workloadRuns `json:"workloads"`
}

type hostInfo struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func host() hostInfo {
	h := hostInfo{
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func parentMain(root string, names []string, o options, stdout, stderr io.Writer) int {
	set := resultSet{Host: host(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1}
	last := map[string]float64{}
	correct, attempted, failed := true, 0, 0
	for _, name := range names {
		wr := workloadRuns{Name: name}
		for i := 0; i < o.runs; i++ {
			r := spawn(root, name, o.seed+int64(i), o)
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "bench: %s seed %d: %s\n", name, r.Seed, e)
			}
			printRun(stdout, name, r)
			wr.Runs = append(wr.Runs, r)
			correct = correct && r.Correct
			attempted += r.Attempted
			failed += r.Failed
		}
		for k, v := range runMedians(wr.Runs) {
			if len(names) == 1 {
				last[k] = v
			} else {
				last[name+"/"+k] = v
			}
		}
		set.Workloads = append(set.Workloads, wr)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for k, v := range last {
		_, name, _ := strings.Cut(k, "/")
		if name == "" {
			name = k
		}
		metrics[k] = value{Value: v, Unit: unitOf(name)}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a fresh child process and returns the run
// it reports.
func spawn(root, name string, seed int64, o options) runResult {
	failed := runResult{Seed: seed, Attempted: 1, Failed: 1}
	exe, err := os.Executable()
	if err != nil {
		failed.Errors = []string{err.Error()}
		return failed
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace))
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var r runResult
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		failed.Errors = []string{fmt.Sprintf("child: %v (no report: %v)", runErr, err)}
		return failed
	}
	if r.Attempted < 1 || (runErr != nil && r.Correct) {
		r.Errors = append(r.Errors, fmt.Sprintf("child: %d attempted, exit %v", r.Attempted, runErr))
		r.Correct, r.Attempted, r.Failed = false, max(r.Attempted, 1), max(r.Failed, 1)
	}
	return r
}

// runMedians is the median of each metric over runs.
func runMedians(runs []runResult) map[string]float64 {
	var ms []map[string]float64
	for _, r := range runs {
		if r.Metrics != nil {
			ms = append(ms, r.Metrics)
		}
	}
	return medians(ms)
}

func printRun(w io.Writer, name string, r runResult) {
	status := "ok"
	if !r.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(w, "%s seed=%d units=%d attempted=%d failed=%d %s\n", name, r.Seed, r.Units, r.Attempted, r.Failed, status)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// recordMain writes the output pins of the digest-gated workloads from
// one unit each on this tree.
func recordMain(root string, names []string, stdout, stderr io.Writer) int {
	for _, name := range names {
		w, p, err := newRunner(root, name, 1, true)
		if p == nil && err == nil {
			continue // table3-cold and -warm compare with results/table3.csv
		}
		if err == nil {
			err = w.setup()
		}
		if err == nil {
			_, _, err = w.unit()
		}
		if err == nil {
			err = p.save()
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: record %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %s\n", p.path)
	}
	return 0
}

// resetPeakRSS clears the kernel's peak-RSS mark of this process.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the peak RSS since the last reset (VmHWM), in bytes.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
