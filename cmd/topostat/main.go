// Command topostat inspects the topology models: configuration selection,
// link inventories, and hop-distance histograms under uniform traffic.
// Beyond the paper's Table 2 trio it sizes and describes the
// extreme-scale families (Slim Fly, Jellyfish, HyperX).
//
// Usage:
//
//	topostat -size 216              # all families sized for 216 ranks
//	topostat -kind torus -size 64   # one family only
//	topostat -kind slimfly -size 64 # one of the extreme-scale families
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"netloc/internal/core"
	"netloc/internal/topology"
)

func main() {
	var (
		size = flag.Int("size", 64, "rank count to configure for")
		kind = flag.String("kind", "", "restrict to one family (torus|fattree|dragonfly|slimfly|jellyfish|hyperx)")
	)
	flag.Parse()
	if err := run(os.Stdout, *size, *kind); err != nil {
		fmt.Fprintln(os.Stderr, "topostat:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, size int, kind string) error {
	// Size every requested family (core.ConfigFor, in core.AnalysisKinds
	// order: the paper trio first) before describing any, so an invalid
	// size fails fast instead of after an expensive histogram. On the
	// all-families listing an extreme-scale family with no valid
	// configuration is noted and skipped; a paper family's sizing error,
	// or any error on an explicitly requested family, aborts the run.
	type block struct {
		kind string
		cfg  topology.Config
		skip error
	}
	var blocks []block
	for _, k := range core.AnalysisKinds() {
		if kind != "" && k != kind {
			continue
		}
		cfg, err := core.ConfigFor(k, size)
		if err != nil {
			if kind == "" && !slices.Contains(core.PaperKinds(), k) {
				blocks = append(blocks, block{kind: k, skip: err})
				continue
			}
			return err
		}
		blocks = append(blocks, block{kind: k, cfg: cfg})
	}
	if len(blocks) == 0 {
		return fmt.Errorf("unknown kind %q (known: %s)", kind, strings.Join(core.AnalysisKinds(), ", "))
	}
	for _, b := range blocks {
		if b.skip != nil {
			fmt.Fprintf(w, "%s: no configuration for %d ranks (%v)\n", b.kind, size, b.skip)
			continue
		}
		if err := describe(w, b.cfg, size); err != nil {
			return err
		}
	}
	return nil
}

func describe(w io.Writer, cfg topology.Config, ranks int) error {
	topo, err := cfg.Build()
	if err != nil {
		return err
	}
	classes := topo.LinkClasses()
	var term, local, global int
	for _, c := range classes {
		switch c {
		case topology.ClassTerminal:
			term++
		case topology.ClassLocal:
			local++
		case topology.ClassGlobal:
			global++
		}
	}
	fmt.Fprintf(w, "%s %s: %d nodes (%d ranks mapped), %d vertices, %d links (%d terminal, %d local, %d global)\n",
		cfg.Kind, cfg, topo.Nodes(), ranks, topo.NumVertices(), len(topo.Links()), term, local, global)
	cost := topology.CostOf(topo)
	fmt.Fprintf(w, "  cost: %d switches, %d links, %d ports (%.1f units)\n",
		cost.Switches, cost.Links, cost.Ports, cost.Units())

	// Hop histogram over the mapped rank pairs (consecutive mapping).
	hist := map[int]int{}
	maxHops, pairs := 0, 0
	var total float64
	for s := 0; s < ranks; s++ {
		for d := 0; d < ranks; d++ {
			if s == d {
				continue
			}
			h := topo.HopCount(s, d)
			hist[h]++
			pairs++
			total += float64(h)
			if h > maxHops {
				maxHops = h
			}
		}
	}
	fmt.Fprintf(w, "  uniform pairs: avg hops %.3f, diameter (over mapped ranks) %d\n", total/float64(pairs), maxHops)
	for h := 0; h <= maxHops; h++ {
		if hist[h] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %2d hops: %7d pairs (%5.1f%%)\n", h, hist[h], 100*float64(hist[h])/float64(pairs))
	}
	return nil
}
