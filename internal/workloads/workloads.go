// Package workloads generates synthetic dumpi-like traces for the 16 DOE
// exascale proxy mini-apps the study analyzes.
//
// The original study consumes real MPI traces from the Sandia dumpi
// repository. Those traces are not redistributable here, so each mini-app
// is replaced by a deterministic generator that reproduces the app's
// published communication *structure* (3D 27-point stencils, 2D KBA
// sweeps, FFT transposes, multigrid level hierarchies, AMR refinement,
// CG solvers, crystal-router staged exchange) with volumes, execution
// times, and point-to-point/collective splits calibrated to the paper's
// Table 1. Every locality metric of the study is a pure function of the
// (source, destination, bytes, op) stream, so matching the spatial pattern
// and volume mix exercises the same code paths and preserves the shape of
// every downstream result.
package workloads

import (
	"fmt"
	"io"
	"math"
	"sort"

	"netloc/internal/trace"
)

// Scale is one calibrated configuration of an application (one row of the
// paper's Table 1).
type Scale struct {
	Ranks int
	// VolMB is the caller-side traffic volume in megabytes (10^6 bytes),
	// point-to-point plus collective.
	VolMB float64
	// RateMBps is the throughput column (Vol./t); the execution time is
	// derived as VolMB / RateMBps, which is more precise than the
	// table's rounded time column.
	RateMBps float64
	// P2PPct is the point-to-point share of the volume in percent.
	P2PPct float64
}

// Time returns the execution time in seconds.
func (s Scale) Time() float64 { return s.VolMB / s.RateMBps }

// App is a synthetic workload generator for one mini-app.
type App struct {
	// Name is the application name as used in the paper's tables.
	Name string
	// Star marks applications that use MPI derived datatypes in the
	// original traces (the paper sizes those at one byte per element).
	Star bool
	// Scales lists the calibrated configurations.
	Scales []Scale
	// pattern builds the communication pattern for one scale.
	pattern func(s Scale) (*spec, error)
}

// Generate produces the synthetic trace for the given rank count, which
// must be one of the app's scales: Stream's events, collected.
func (a *App) Generate(ranks int) (*trace.Trace, error) {
	s, err := a.Stream(ranks)
	if err != nil {
		return nil, err
	}
	return trace.Collect(s)
}

// Stream returns the synthetic trace for the given rank count, which must
// be one of the app's scales, as a trace.Source: the calibrated pattern is
// built now, and each Next stamps and validates the next batch of its
// events, so the event list is never held in memory. Its Remaining is the
// whole trace's event count until the first Next.
func (a *App) Stream(ranks int) (trace.Source, error) {
	s, err := a.ScaleFor(ranks)
	if err != nil {
		return nil, err
	}
	return a.open(s)
}

// open builds the app's calibrated pattern at one scale and opens its
// stream.
func (a *App) open(s Scale) (trace.Source, error) {
	sp, err := a.pattern(s)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s/%d: %w", a.Name, s.Ranks, err)
	}
	sp.name = a.Name
	return sp.stream()
}

// RankCounts returns the app's configured scales in ascending order.
func (a *App) RankCounts() []int {
	out := make([]int, len(a.Scales))
	for i, s := range a.Scales {
		out[i] = s.Ranks
	}
	sort.Ints(out)
	return out
}

// ScaleFor returns the calibration row for a rank count.
func (a *App) ScaleFor(ranks int) (Scale, error) {
	for _, s := range a.Scales {
		if s.Ranks == ranks {
			return s, nil
		}
	}
	return Scale{}, fmt.Errorf("workloads: %s has no %d-rank configuration", a.Name, ranks)
}

// pairMsg is a logical point-to-point exchange: weight units of relative
// volume from src to dst, split into msgs messages.
type pairMsg struct {
	src, dst int
	weight   float64
	msgs     int
}

// Chunk sizes of a pairList: the first chunk holds minPairChunk pairs,
// each next one twice the last, up to maxPairChunk (256 KB).
const (
	minPairChunk = 256
	maxPairChunk = 8192
)

// pairList holds a pattern's pairs in recording order, in chunks that are
// never copied as the list grows (Boxlib CNS/1024 records over a million
// pairs), and that start small, so a small pattern holds one small chunk.
// add creates a chunk with its first pair, so no chunk is empty.
type pairList struct {
	chunks [][]pairMsg
}

func (l *pairList) add(p pairMsg) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		size := minPairChunk
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), maxPairChunk)
		}
		l.chunks = append(l.chunks, make([]pairMsg, 0, size))
		last++
	}
	l.chunks[last] = append(l.chunks[last], p)
}

// collCall is a collective operation repeated calls times, recorded at
// every rank with a relative per-event weight.
type collCall struct {
	op     trace.Op
	root   int
	weight float64
	calls  int
}

// spec is an uncalibrated communication pattern; stream scales it to the
// target volumes and opens its events.
type spec struct {
	name       string
	ranks      int
	wall       float64 // seconds
	targetP2P  float64 // bytes
	targetColl float64 // bytes
	p2p        pairList
	colls      []collCall
}

func newSpec(s Scale) *spec {
	vol := s.VolMB * 1e6
	return &spec{
		ranks:      s.Ranks,
		wall:       s.Time(),
		targetP2P:  vol * s.P2PPct / 100,
		targetColl: vol * (100 - s.P2PPct) / 100,
	}
}

// send adds a logical p2p exchange (ignored when weight is zero or the
// endpoints coincide).
func (sp *spec) send(src, dst int, weight float64, msgs int) {
	if weight <= 0 || src == dst {
		return
	}
	if msgs < 1 {
		msgs = 1
	}
	sp.p2p.add(pairMsg{src: src, dst: dst, weight: weight, msgs: msgs})
}

// collective adds a collective call series.
func (sp *spec) collective(op trace.Op, root int, weight float64, calls int) {
	if calls < 1 || weight < 0 {
		return
	}
	sp.colls = append(sp.colls, collCall{op: op, root: root, weight: weight, calls: calls})
}

// stream calibrates the pattern to the target volumes and opens its
// events: every pair's messages in recording order, then every
// collective's calls, one event per rank per call. P2P weights are scaled
// so the summed message bytes hit targetP2P; collective weights so the
// caller-side event bytes hit targetColl. The events are stamped one
// after the other at equal intervals across the wall time.
func (sp *spec) stream() (*stream, error) {
	if sp.ranks <= 0 {
		return nil, fmt.Errorf("workloads: non-positive rank count %d", sp.ranks)
	}
	if sp.targetP2P > 0 && len(sp.p2p.chunks) == 0 {
		return nil, fmt.Errorf("workloads: %s wants %g p2p bytes but has no p2p pattern", sp.name, sp.targetP2P)
	}
	if sp.targetColl > 0 && len(sp.colls) == 0 {
		return nil, fmt.Errorf("workloads: %s wants %g collective bytes but has no collective pattern", sp.name, sp.targetColl)
	}

	s := &stream{sp: sp, meta: trace.Meta{App: sp.name, Ranks: sp.ranks, WallTime: sp.wall}}
	for _, c := range sp.p2p.chunks {
		for _, p := range c {
			s.sumP2P += p.weight
			s.total += p.msgs
		}
	}
	for _, c := range sp.colls {
		s.sumColl += c.weight * float64(c.calls) * float64(sp.ranks)
		s.total += c.calls * sp.ranks
	}

	wallNanos := sp.wall * 1e9
	if math.IsInf(wallNanos, 0) || math.IsNaN(wallNanos) || wallNanos < 0 {
		return nil, fmt.Errorf("workloads: %s has invalid wall time %g", sp.name, sp.wall)
	}
	s.dt = 1
	if s.total > 0 && wallNanos >= 1 {
		s.dt = max(uint64(wallNanos/float64(s.total)), 1)
	}
	if err := s.meta.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: %s generated invalid trace: %w", sp.name, err)
	}
	s.batch = make([]trace.Event, streamBatch)
	return s, nil
}

// streamBatch is the number of events a stream stamps per Next.
const streamBatch = 256

// stream is a calibrated pattern read as a trace.Source. Its cursor names
// the next event: message msg of pair pair of chunk chunk while pairs
// remain, then rank rank of call call of collective coll.
type stream struct {
	sp              *spec
	meta            trace.Meta
	sumP2P, sumColl float64
	total, done     int // events in the trace, events stamped
	dt, clock       uint64
	batch           []trace.Event

	chunk, pair, msg int
	coll, call, rank int
	// bytes is the payload of the current pair's messages after its
	// first, or of the current collective's events.
	bytes uint64
}

func (s *stream) Meta() trace.Meta  { return s.meta }
func (s *stream) Remaining() uint64 { return uint64(s.total - s.done) }

// Next stamps and validates the next batch of events into the reused
// batch; see trace.Source.
func (s *stream) Next() ([]trace.Event, error) {
	n := 0
	for ; n < len(s.batch) && s.done < s.total; n++ {
		e := s.event()
		e.Start, e.End = s.clock, s.clock+s.dt
		if err := e.Validate(s.meta.Ranks); err != nil {
			return s.batch[:n], fmt.Errorf("workloads: %s generated invalid trace: event %d: %w", s.meta.App, s.done, err)
		}
		s.clock += s.dt
		s.batch[n] = e
		s.done++
	}
	if s.done == s.total {
		return s.batch[:n], io.EOF
	}
	return s.batch[:n], nil
}

// event returns the event under the cursor, unstamped, and advances the
// cursor; at least one event must remain.
func (s *stream) event() trace.Event {
	sp := s.sp
	if s.chunk < len(sp.p2p.chunks) {
		chunk := sp.p2p.chunks[s.chunk]
		p := &chunk[s.pair]
		b := s.bytes
		if s.msg == 0 {
			total := uint64(math.Round(p.weight / s.sumP2P * sp.targetP2P))
			s.bytes = total / uint64(p.msgs)
			b = total - s.bytes*uint64(p.msgs-1)
		}
		if s.msg++; s.msg == p.msgs {
			s.msg = 0
			if s.pair++; s.pair == len(chunk) {
				s.pair = 0
				s.chunk++
			}
		}
		return trace.Event{Rank: p.src, Op: trace.OpSend, Peer: p.dst, Root: -1, Bytes: b}
	}
	c := &sp.colls[s.coll]
	if s.call == 0 && s.rank == 0 {
		s.bytes = 0
		if s.sumColl > 0 && sp.targetColl > 0 {
			s.bytes = uint64(math.Round(c.weight / s.sumColl * sp.targetColl))
		}
	}
	e := trace.Event{Rank: s.rank, Op: c.op, Peer: -1, Root: -1, Bytes: s.bytes}
	switch c.op {
	case trace.OpBcast, trace.OpReduce, trace.OpGather, trace.OpGatherv,
		trace.OpScatter, trace.OpScatterv:
		e.Root = max(c.root, 0)
	}
	if s.rank++; s.rank == sp.ranks {
		s.rank = 0
		if s.call++; s.call == c.calls {
			s.call = 0
			s.coll++
		}
	}
	return e
}

// registry of all applications, populated by the per-app files' init-free
// constructors.
var registry = func() map[string]*App {
	apps := []*App{
		amgApp(), amrApp(), bigFFTApp(), cnsApp(), boxMGApp(), mocfeApp(),
		nekboneApp(), crystalApp(), cmcApp(), luleshApp(), fillBoundaryApp(),
		miniFEApp(), multiGridCApp(), partisnApp(), snapApp(),
	}
	m := make(map[string]*App, len(apps))
	for _, a := range apps {
		m[a.Name] = a
	}
	return m
}()

// Lookup returns the app with the given name.
func Lookup(name string) (*App, error) {
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown application %q", name)
	}
	return a, nil
}

// Names returns all application names in alphabetical order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns all applications sorted by name.
func All() []*App {
	out := make([]*App, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
