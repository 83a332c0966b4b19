// Command tracegen writes the synthetic dumpi-like traces of the workload
// suite to disk, in binary (.nlt) or text form.
//
// Usage:
//
//	tracegen -app LULESH -ranks 64 -o lulesh64.nlt
//	tracegen -app "Boxlib CNS" -ranks 256 -text -o cns256.txt
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"netloc/internal/trace"
	"netloc/internal/workloads"
)

func main() {
	var (
		app   = flag.String("app", "", "workload name (see -list)")
		ranks = flag.Int("ranks", 0, "rank count (one of the app's scales)")
		out   = flag.String("o", "", "output file (default <app>-<ranks>.nlt)")
		text  = flag.Bool("text", false, "write the text format instead of binary")
		list  = flag.Bool("list", false, "list available workloads and scales")
	)
	flag.Parse()
	if err := run(*app, *ranks, *out, *text, *list); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(app string, ranks int, out string, text, list bool) error {
	if list {
		for _, a := range workloads.All() {
			counts := make([]string, 0, len(a.Scales))
			for _, r := range a.RankCounts() {
				counts = append(counts, fmt.Sprint(r))
			}
			fmt.Printf("%-20s ranks: %s\n", a.Name, strings.Join(counts, ", "))
		}
		return nil
	}
	if app == "" || ranks == 0 {
		return fmt.Errorf("need -app and -ranks (or -list)")
	}
	a, err := workloads.Lookup(app)
	if err != nil {
		return err
	}
	src, err := a.Stream(ranks)
	if err != nil {
		return err
	}
	meta, events := src.Meta(), src.Remaining()
	if out == "" {
		ext := ".nlt"
		if text {
			ext = ".txt"
		}
		out = fmt.Sprintf("%s-%d%s", strings.ReplaceAll(app, " ", "_"), ranks, ext)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if text {
		err = trace.WriteTextSource(f, src)
	} else {
		err = trace.WriteSource(f, src)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events, %d ranks, %.3gs wall time\n",
		out, events, meta.Ranks, meta.WallTime)
	return nil
}
