package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one metric of one workload from the runs of the parent
// and of the change, paired by index. For an end-to-end metric, which
// has a bound:
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - better: the change wins at least 9 of every 10 pairs (ties count
//     for neither) and the medians differ by more than the parent's
//     interquartile spread;
//   - unresolved: the parent's spread is wider than the bound, unless
//     every change run beats every parent run (better) or loses to it
//     by more than the bound (worse);
//   - unchanged otherwise.
//
// A per-layer metric has no bound; it reads better or worse by the
// pairing rule alone, in either direction.
func verdict(d metricDef, parent, change []float64) string {
	sign := 1.0 // normalized so that smaller is better
	if d.Better == "higher" {
		sign = -1
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	rel := sign * (cm - pm) / math.Abs(pm)
	if pm == 0 {
		rel = sign * (cm - pm)
	}
	if d.Bound > 0 {
		pBest, pWorst := extremes(parent, sign)
		cBest, cWorst := extremes(change, sign)
		if spread := (q3 - q1) / math.Abs(pm); spread > d.Bound {
			switch {
			case cWorst < pBest:
				return better
			case cBest > pWorst && rel > d.Bound:
				return worse
			}
			return unresolved
		}
		if rel > d.Bound {
			return worse
		}
	}
	wins, losses, n := 0, 0, min(len(parent), len(change))
	for i := 0; i < n; i++ {
		switch c, p := sign*change[i], sign*parent[i]; {
		case c < p:
			wins++
		case c > p:
			losses++
		}
	}
	if n == 0 || math.Abs(cm-pm) <= q3-q1 {
		return unchanged
	}
	switch {
	case rel < 0 && float64(wins) >= 0.9*float64(n):
		return better
	case d.Bound == 0 && rel > 0 && float64(losses) >= 0.9*float64(n):
		return worse
	}
	return unchanged
}

// extremes returns the best and worst of xs in the normalized direction.
func extremes(xs []float64, sign float64) (best, worst float64) {
	best, worst = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		best = math.Min(best, sign*x)
		worst = math.Max(worst, sign*x)
	}
	return best, worst
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain prints, per workload and metric, each side's median and
// quartiles with the verdict: the end-to-end metrics of untraced sets
// and the per-layer metrics of traced ones. It exits 1 when a metric got
// worse or a run of the change failed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare parent.json change.json")
		return 2
	}
	parent, err := loadSet(args[0])
	if err == nil {
		var change *resultSet
		change, err = loadSet(args[1])
		if err == nil {
			return compareSets(append(append([]metricDef(nil), endToEnd...), perLayer...), parent, change, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareSets(defs []metricDef, parent, change *resultSet, w io.Writer) int {
	counts := map[string]int{}
	failedRuns := 0
	fmt.Fprintf(w, "%-12s %-26s %5s %12s %12s %12s   %12s %12s %12s  %s\n",
		"workload", "metric", "pairs", "parent.q1", "parent.med", "parent.q3", "change.q1", "change.med", "change.q3", "verdict")
	for _, cw := range change.Workloads {
		for _, r := range cw.Runs {
			if !r.Correct {
				failedRuns++
			}
		}
		var pw *workloadRuns
		for i := range parent.Workloads {
			if parent.Workloads[i].Name == cw.Name {
				pw = &parent.Workloads[i]
			}
		}
		if pw == nil {
			fmt.Fprintf(w, "%-12s only in the change\n", cw.Name)
			continue
		}
		for _, d := range defs {
			p, c := values(pw.Runs, d.Name), values(cw.Runs, d.Name)
			if len(p) == 0 || len(c) == 0 || allZero(p) && allZero(c) {
				continue // not measured, or a layer the workload never calls
			}
			v := verdict(d, p, c)
			counts[v]++
			p1, p2, p3 := quartiles(p)
			c1, c2, c3 := quartiles(c)
			fmt.Fprintf(w, "%-12s %-26s %5d %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s\n",
				cw.Name, d.Name, min(len(p), len(c)), p1, p2, p3, c1, c2, c3, v)
		}
	}
	fmt.Fprintf(w, "regressions: %d  gains: %d  unchanged: %d  unresolved: %d  failed change runs: %d\n",
		counts[worse], counts[better], counts[unchanged], counts[unresolved], failedRuns)
	if counts[worse] > 0 || failedRuns > 0 {
		return 1
	}
	return 0
}

func allZero(xs []float64) bool {
	for _, x := range xs {
		if x != 0 {
			return false
		}
	}
	return true
}

func values(runs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}
