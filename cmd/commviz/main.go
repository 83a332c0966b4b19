// Command commviz renders the communication matrix of a workload (or a
// trace file) as a heat map — the density-plot view the paper's metrics
// replace with objective numbers. ASCII goes to stdout; -pgm writes a
// grayscale image, one pixel per rank pair.
//
// Usage:
//
//	commviz -app LULESH -ranks 64
//	commviz -app "CESAR MOCFE" -ranks 256 -wire
//	commviz -trace run.nlt -pgm out.pgm
//	commviz -app AMG -ranks 216 -cells 32   # ASCII grid cells per side (default 64)
package main

import (
	"flag"
	"fmt"
	"os"

	"netloc/internal/comm"
	"netloc/internal/report"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

func main() {
	var (
		app     = flag.String("app", "", "workload name")
		ranks   = flag.Int("ranks", 0, "rank count")
		traceIn = flag.String("trace", "", "binary trace file instead of a workload")
		wire    = flag.Bool("wire", false, "show the wire matrix (expanded collectives) instead of p2p only")
		pgm     = flag.String("pgm", "", "write a PGM image to this path instead of ASCII")
		cells   = flag.Int("cells", 64, "ASCII grid resolution")
	)
	flag.Parse()
	if err := run(*app, *ranks, *traceIn, *wire, *pgm, *cells); err != nil {
		fmt.Fprintln(os.Stderr, "commviz:", err)
		os.Exit(1)
	}
}

func run(app string, ranks int, traceIn string, wire bool, pgm string, cells int) error {
	var t *trace.Trace
	switch {
	case traceIn != "":
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		defer f.Close()
		if t, err = trace.ReadTrace(f); err != nil {
			return err
		}
	case app != "" && ranks != 0:
		a, err := workloads.Lookup(app)
		if err != nil {
			return err
		}
		if t, err = a.Generate(ranks); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -app and -ranks, or -trace")
	}

	acc, err := comm.Accumulate(t, comm.AccumulateOptions{})
	if err != nil {
		return err
	}
	m := acc.P2P
	if wire {
		m = acc.Wire
	}
	if pgm != "" {
		f, err := os.Create(pgm)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.HeatmapPGM(f, m); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%dx%d)\n", pgm, m.Ranks(), m.Ranks())
		return nil
	}
	return report.HeatmapASCII(os.Stdout, m, cells)
}
