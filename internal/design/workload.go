package design

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"netloc/internal/core"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// ExtraApps lists the design-only synthetic workloads available on top
// of the calibrated registry in internal/workloads. They exist for
// sizing studies at scales or codes the paper's characterization tables
// do not pin, so adding them here keeps the registry — and every golden
// table derived from it — untouched.
func ExtraApps() []string { return []string{"milc"} }

// AppNames returns every workload name a design request accepts:
// the calibrated registry plus the design-only extras, sorted.
func AppNames() []string {
	names := append(workloads.Names(), ExtraApps()...)
	sort.Strings(names)
	return names
}

// sourceMILC is the workcache trace source for the design-only MILC
// synthetic generator.
const sourceMILC = "milc"

// resolveTrace produces the workload trace for a canonicalized request:
// an attached trace verbatim, a design-only synthetic generator, or the
// named registry app (case-insensitively) at the requested scale through
// App.GenerateAt, which builds the configured trace at a configured scale
// and extrapolates otherwise. Generated traces come through the
// pipeline's generate stage (core.Generate).
//
// The returned key addresses a generated trace in the artifact cache, and
// is the zero key for an attached trace. Attached traces are never cached
// — request payloads must not be able to poison artifacts shared with
// other callers — and generated ones are keyed by source so an
// extrapolated trace can never satisfy an exact-scale lookup: a
// configured scale shares the core experiments' "gen" slot, any other
// scale is keyed "genat".
func resolveTrace(req Request, opts core.Options) (*trace.Trace, workcache.TraceKey, error) {
	if req.Trace != nil {
		if err := req.Trace.Validate(); err != nil {
			return nil, workcache.TraceKey{}, err
		}
		return req.Trace, workcache.TraceKey{}, nil
	}
	key := workcache.TraceKey{Source: sourceMILC, App: "milc", Ranks: req.Ranks}
	gen := func() (*trace.Trace, error) { return milcTrace(req.Ranks) }
	if !strings.EqualFold(req.App, "milc") {
		app, err := lookupFold(req.App)
		if err != nil {
			return nil, key, err
		}
		key = workcache.TraceKey{Source: workcache.SourceGenerateAt, App: app.Name, Ranks: req.Ranks}
		if slices.Contains(app.RankCounts(), req.Ranks) {
			key.Source = workcache.SourceGenerate
		}
		gen = func() (*trace.Trace, error) { return app.GenerateAt(req.Ranks) }
	}
	t, err := core.Generate(key, gen, opts)
	return t, key, err
}

// knownApp reports whether a design request may name this workload, so
// validation (and therefore job submission) rejects unknown apps
// synchronously instead of spawning a search doomed to fail.
func knownApp(name string) error {
	for _, extra := range ExtraApps() {
		if strings.EqualFold(name, extra) {
			return nil
		}
	}
	_, err := lookupFold(name)
	return err
}

// lookupFold finds a registry app by case-insensitive name.
func lookupFold(name string) (*workloads.App, error) {
	if app, err := workloads.Lookup(name); err == nil {
		return app, nil
	}
	for _, n := range workloads.Names() {
		if strings.EqualFold(n, name) {
			return workloads.Lookup(n)
		}
	}
	return nil, fmt.Errorf("design: unknown application %q (known: %v)", name, AppNames())
}

// MILC synthetic generator. MILC is the classic lattice-QCD code: ranks
// form a 4D torus over the space-time lattice and each iteration
// exchanges site boundaries with all eight 4D neighbors — the textbook
// nearest-neighbor-dominated pattern (P2P share ~100%, NN share high on
// matching torus dims). The sizes below follow the other generators'
// ballpark: tens of KB per halo face, a handful of iterations, wall time
// from an aggregate-bandwidth rate.
const (
	milcIterations = 4
	milcHaloBytes  = 48 * 1024
	// milcRateBytesPerSec converts exchanged volume into a plausible
	// wall time, matching the magnitude of the calibrated generators.
	milcRateBytesPerSec = 800e6
)

// milcTrace builds the design-only MILC halo-exchange trace at any rank
// count: the ranks are factored onto a near-balanced 4D grid and every
// rank sends one halo face to each distinct neighbor per iteration.
func milcTrace(ranks int) (*trace.Trace, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("design: non-positive rank count %d", ranks)
	}
	dims, err := dims4(ranks)
	if err != nil {
		return nil, err
	}
	var events []trace.Event
	for it := 0; it < milcIterations; it++ {
		for r := 0; r < ranks; r++ {
			c := coord4(r, dims)
			seen := map[int]bool{r: true}
			for d := 0; d < 4; d++ {
				for _, step := range [2]int{1, -1} {
					n := c
					n[d] = ((c[d]+step)%dims[d] + dims[d]) % dims[d]
					peer := index4(n, dims)
					if seen[peer] {
						continue // dim of size <= 2: both directions coincide
					}
					seen[peer] = true
					events = append(events, trace.Event{
						Rank: r, Op: trace.OpSend, Peer: peer, Root: -1,
						Bytes: milcHaloBytes,
					})
				}
			}
		}
	}
	var volume uint64
	for _, e := range events {
		volume += e.Bytes
	}
	wall := float64(volume) / milcRateBytesPerSec
	// Stamp timestamps evenly across the wall time, the same sequential
	// clock the registry generators use.
	if n := len(events); n > 0 {
		dt := uint64(wall*1e9) / uint64(n)
		if dt == 0 {
			dt = 1
		}
		clock := uint64(0)
		for i := range events {
			events[i].Start = clock
			clock += dt
			events[i].End = clock
		}
	}
	t := &trace.Trace{
		Meta:   trace.Meta{App: "MILC", Ranks: ranks, WallTime: wall},
		Events: events,
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("design: milc generator produced invalid trace: %w", err)
	}
	return t, nil
}

// dims4 factors n onto a near-balanced 4D grid (largest dim first) by
// distributing prime factors onto the currently smallest dimension.
// Like the extrapolated registry scales, rank counts with huge prime
// factors are rejected rather than flattened onto a line.
func dims4(n int) ([4]int, error) {
	dims := [4]int{1, 1, 1, 1}
	rem := n
	for f := 2; f*f <= rem; {
		if rem%f == 0 {
			rem /= f
			smallest(&dims)[0] *= f
		} else {
			f++
		}
	}
	if rem > 1 {
		if rem > 64 {
			return dims, fmt.Errorf("design: cannot factor %d ranks onto a 4D grid (prime factor %d too large)", n, rem)
		}
		smallest(&dims)[0] *= rem
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims[:])))
	return dims, nil
}

// smallest returns a pointer (as a one-element slice) to the smallest
// dimension entry.
func smallest(dims *[4]int) []int {
	best := 0
	for i := 1; i < 4; i++ {
		if dims[i] < dims[best] {
			best = i
		}
	}
	return dims[best : best+1]
}

func coord4(r int, dims [4]int) [4]int {
	var c [4]int
	for d := 3; d >= 0; d-- {
		c[d] = r % dims[d]
		r /= dims[d]
	}
	return c
}

func index4(c [4]int, dims [4]int) int {
	idx := 0
	for d := 0; d < 4; d++ {
		idx = idx*dims[d] + c[d]
	}
	return idx
}
