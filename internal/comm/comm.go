// Package comm accumulates traced MPI traffic into communication matrices:
// per ordered rank pair, the total bytes, message count, and packet count.
//
// Two matrices matter to the study: the point-to-point matrix (what the
// hardware-agnostic MPI-level metrics — rank locality, selectivity, peers —
// are computed from) and the full wire matrix including expanded
// collectives (what the topology-level metrics — packet hops, utilization —
// are computed from). Accumulate builds both in one streaming pass.
package comm

import (
	"fmt"
	"io"
	"math/bits"

	"netloc/internal/mpi"
	"netloc/internal/parallel"
	"netloc/internal/trace"
)

// DefaultPacketSize is the maximum packet payload the paper assumes (4 kB).
const DefaultPacketSize = 4096

// MaxVolume is the ceiling on the bytes a matrix, or a caller-side
// total of an accumulation, may sum to: 2^48 B (256 TiB), about 2,000
// times the largest registry workload (SNAP at 168 ranks, 1.3·10^11 B).
// Recording past it fails instead of wrapping.
//
// The ceiling keeps every byte × route-length sum exact in uint64:
// netmodel's byte-hops and the mapping costs that Greedy, Refine and
// Bisection compare. Such a sum is at most the volume times the longest
// route, so it cannot wrap while routes are shorter than 2^16 links, and
// they are on every topology the program builds. Fat-tree, dragonfly,
// Slim Fly and HyperX routes have at most six links (Valiant's two
// dragonfly legs ten), Jellyfish routes at most two more than its int16
// switch tables hold, and a torus or mesh route fewer than the grid's
// nodes: below 2^15 for topology.Configs (at most 13,824 ranks), and at
// most twice the ranks for design candidates, so 2^16 for a search over
// 32,768 ranks.
const MaxVolume = 1 << 48

// Key identifies an ordered rank pair.
type Key struct {
	Src, Dst int
}

// Entry aggregates the traffic of one ordered rank pair.
type Entry struct {
	Bytes    uint64
	Messages uint64
	Packets  uint64
}

// Matrix is a communication matrix over ranks 0..Ranks-1, stored row-wise
// (one destination row per source rank) so that per-source queries — which
// the rank-level metrics issue for every rank — touch only that rank's
// partners rather than the whole pair set.
//
// Each row starts as a sparse destination map; once a row's population
// crosses denseThreshold (collective expansion fills rows toward all-to-all
// density) it is promoted to a dense per-destination slice, where an entry
// is present iff Messages != 0. Dense rows turn the AddN hot path into an
// array index instead of a map assignment, which is where the accumulation
// grid spent most of its allocations.
type Matrix struct {
	ranks      int
	packetSize int
	sparse     []map[int]Entry
	dense      [][]Entry
	pairs      int
	totalBytes uint64
	totalMsgs  uint64
	totalPkts  uint64
}

// NewMatrix creates an empty matrix. packetSize <= 0 selects
// DefaultPacketSize.
func NewMatrix(ranks, packetSize int) (*Matrix, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("comm: non-positive rank count %d", ranks)
	}
	if packetSize <= 0 {
		packetSize = DefaultPacketSize
	}
	return &Matrix{ranks: ranks, packetSize: packetSize, sparse: make([]map[int]Entry, ranks), dense: make([][]Entry, ranks)}, nil
}

// denseThreshold is the row population at which a sparse row is promoted
// to a dense slice: a quarter of the rank space, floored so tiny matrices
// stay in cheap maps.
func (m *Matrix) denseThreshold() int {
	t := m.ranks / 4
	if t < 16 {
		t = 16
	}
	return t
}

// promoteRow converts a sparse row into its dense representation.
func (m *Matrix) promoteRow(src int) {
	d := make([]Entry, m.ranks)
	for dst, e := range m.sparse[src] {
		d[dst] = e
	}
	m.dense[src] = d
	m.sparse[src] = nil
}

// Ranks returns the rank-space size of the matrix.
func (m *Matrix) Ranks() int { return m.ranks }

// PacketSize returns the packetization granularity in bytes.
func (m *Matrix) PacketSize() int { return m.packetSize }

// PacketsFor returns how many packets a message of the given size occupies:
// ceil(bytes/packetSize); zero-byte messages carry no packets.
func (m *Matrix) PacketsFor(bytes uint64) uint64 {
	ps := uint64(m.packetSize)
	return (bytes + ps - 1) / ps
}

// Add records one message from src to dst.
func (m *Matrix) Add(src, dst int, bytes uint64) error {
	return m.AddN(src, dst, bytes, 1)
}

// AddN records n identical messages of the given size from src to dst in
// one operation (used to coalesce repeated collective rounds).
func (m *Matrix) AddN(src, dst int, bytes uint64, n uint64) error {
	if src < 0 || src >= m.ranks || dst < 0 || dst >= m.ranks {
		return fmt.Errorf("comm: pair (%d,%d) out of range [0,%d)", src, dst, m.ranks)
	}
	if src == dst {
		return fmt.Errorf("comm: self message on rank %d", src)
	}
	if n == 0 {
		return nil
	}
	if hi, vol := bits.Mul64(bytes, n); hi != 0 || vol > MaxVolume-m.totalBytes {
		return fmt.Errorf("comm: %d messages of %d B from rank %d to %d take the matrix past %d B (MaxVolume)",
			n, bytes, src, dst, uint64(MaxVolume))
	}
	pkts := m.PacketsFor(bytes) * n
	if d := m.dense[src]; d != nil {
		e := &d[dst]
		if e.Messages == 0 {
			m.pairs++
		}
		e.Bytes += bytes * n
		e.Messages += n
		e.Packets += pkts
	} else {
		row := m.sparse[src]
		if row == nil {
			row = make(map[int]Entry)
			m.sparse[src] = row
		}
		e, existed := row[dst]
		if !existed {
			m.pairs++
		}
		e.Bytes += bytes * n
		e.Messages += n
		e.Packets += pkts
		row[dst] = e
		if len(row) >= m.denseThreshold() {
			m.promoteRow(src)
		}
	}
	m.totalBytes += bytes * n
	m.totalMsgs += n
	m.totalPkts += pkts
	return nil
}

// Pairs returns the number of ordered rank pairs with recorded traffic.
func (m *Matrix) Pairs() int { return m.pairs }

// TotalBytes returns the total recorded volume.
func (m *Matrix) TotalBytes() uint64 { return m.totalBytes }

// TotalMessages returns the total message count.
func (m *Matrix) TotalMessages() uint64 { return m.totalMsgs }

// TotalPackets returns the total packet count.
func (m *Matrix) TotalPackets() uint64 { return m.totalPkts }

// Lookup returns the entry for an ordered pair, or a zero entry.
func (m *Matrix) Lookup(src, dst int) Entry {
	if src < 0 || src >= m.ranks || dst < 0 || dst >= m.ranks {
		return Entry{}
	}
	if d := m.dense[src]; d != nil {
		return d[dst]
	}
	return m.sparse[src][dst]
}

// Each calls fn for every (pair, entry) with recorded traffic, in
// ascending source order; destination order within a source is
// unspecified.
func (m *Matrix) Each(fn func(k Key, e Entry)) {
	for src := 0; src < m.ranks; src++ {
		m.EachDst(src, func(dst int, e Entry) {
			fn(Key{Src: src, Dst: dst}, e)
		})
	}
}

// EachDst calls fn for every recorded destination of the given source
// rank; destination order is unspecified. It is the allocation-free
// alternative to BySource for callers that stream rather than slice.
func (m *Matrix) EachDst(src int, fn func(dst int, e Entry)) {
	if src < 0 || src >= m.ranks {
		return
	}
	if d := m.dense[src]; d != nil {
		for dst := range d {
			if d[dst].Messages != 0 {
				fn(dst, d[dst])
			}
		}
		return
	}
	for dst, e := range m.sparse[src] {
		fn(dst, e)
	}
}

// DenseRow returns src's row indexed by destination rank when the row is
// stored densely, and nil when it is sparse; EachDst visits either. A
// destination without traffic has a zero Entry. The slice is the
// matrix's own; do not modify it.
func (m *Matrix) DenseRow(src int) []Entry {
	if src < 0 || src >= m.ranks {
		return nil
	}
	return m.dense[src]
}

// BySource returns, for the given source rank, the destination ranks it
// sends to and the per-destination byte volumes (parallel slices, order
// unspecified).
func (m *Matrix) BySource(src int) (dsts []int, vols []float64) {
	return m.AppendBySource(src, nil, nil)
}

// AppendBySource appends the destination ranks and per-destination byte
// volumes of src onto the given slices (which may be nil) and returns
// them, letting per-rank metric loops reuse scratch buffers instead of
// allocating a fresh pair per rank. When the row is empty the inputs are
// returned unchanged, so a nil-in/nil-out call matches BySource.
func (m *Matrix) AppendBySource(src int, dsts []int, vols []float64) ([]int, []float64) {
	if src < 0 || src >= m.ranks {
		return dsts, vols
	}
	if d := m.dense[src]; d != nil {
		for dst := range d {
			if d[dst].Messages != 0 {
				dsts = append(dsts, dst)
				vols = append(vols, float64(d[dst].Bytes))
			}
		}
		return dsts, vols
	}
	row := m.sparse[src]
	if len(row) == 0 {
		return dsts, vols
	}
	if dsts == nil {
		dsts = make([]int, 0, len(row))
		vols = make([]float64, 0, len(row))
	}
	for dst, e := range row {
		dsts = append(dsts, dst)
		vols = append(vols, float64(e.Bytes))
	}
	return dsts, vols
}

// Merge adds every recorded entry of other — which must share the rank
// space and packet size — into m. Entries, totals, and pair counts are
// exact integer sums, so merging shard matrices reproduces the matrix a
// single sequential pass over the same events would have built.
func (m *Matrix) Merge(other *Matrix) error {
	if other == nil {
		return nil
	}
	if other.ranks != m.ranks {
		return fmt.Errorf("comm: merge rank mismatch: %d vs %d", other.ranks, m.ranks)
	}
	if other.packetSize != m.packetSize {
		return fmt.Errorf("comm: merge packet-size mismatch: %d vs %d", other.packetSize, m.packetSize)
	}
	if other.totalBytes > MaxVolume-m.totalBytes {
		return fmt.Errorf("comm: merging %d B into %d B passes %d B (MaxVolume)", other.totalBytes, m.totalBytes, uint64(MaxVolume))
	}
	for src := 0; src < m.ranks; src++ {
		if od := other.dense[src]; od != nil {
			// A dense incoming row makes the merged row at least as
			// dense; promote before the vector add.
			if m.dense[src] == nil {
				m.promoteRow(src)
			}
			d := m.dense[src]
			for dst := range od {
				if od[dst].Messages == 0 {
					continue
				}
				if d[dst].Messages == 0 {
					m.pairs++
				}
				d[dst].Bytes += od[dst].Bytes
				d[dst].Messages += od[dst].Messages
				d[dst].Packets += od[dst].Packets
			}
			continue
		}
		srow := other.sparse[src]
		if len(srow) == 0 {
			continue
		}
		if d := m.dense[src]; d != nil {
			for dst, e := range srow {
				if d[dst].Messages == 0 {
					m.pairs++
				}
				d[dst].Bytes += e.Bytes
				d[dst].Messages += e.Messages
				d[dst].Packets += e.Packets
			}
			continue
		}
		row := m.sparse[src]
		if row == nil {
			row = make(map[int]Entry, len(srow))
			m.sparse[src] = row
		}
		for dst, e := range srow {
			cur, existed := row[dst]
			if !existed {
				m.pairs++
			}
			cur.Bytes += e.Bytes
			cur.Messages += e.Messages
			cur.Packets += e.Packets
			row[dst] = cur
		}
		if len(row) >= m.denseThreshold() {
			m.promoteRow(src)
		}
	}
	m.totalBytes += other.totalBytes
	m.totalMsgs += other.totalMsgs
	m.totalPkts += other.totalPkts
	return nil
}

// Accumulated holds the two matrices of one trace plus accounting totals.
type Accumulated struct {
	Meta trace.Meta
	// P2P covers only genuine point-to-point messages (what the
	// MPI-level metrics see).
	P2P *Matrix
	// Wire covers all wire messages including expanded collectives
	// (what the topology-level metrics see).
	Wire *Matrix
	// CallerP2PBytes and CallerCollBytes sum the caller-side payloads of
	// the traced events (the Table 1 volume accounting).
	CallerP2PBytes  uint64
	CallerCollBytes uint64

	// Shards is how many contiguous event shards built the matrices: 1
	// for a sequential pass, the shard count for AccumulateParallel.
	// Purely observational — the matrices are exact integer sums either
	// way.
	Shards int

	strategy   mpi.Strategy
	collCounts map[collKey]uint64
}

// AccumulateOptions tunes accumulation.
type AccumulateOptions struct {
	// PacketSize overrides DefaultPacketSize when positive.
	PacketSize int
	// Strategy selects the collective expansion algorithm; the zero
	// value is the paper's direct translation.
	Strategy mpi.Strategy
}

// Accumulate builds the P2P and wire matrices from a materialized trace.
func Accumulate(t *trace.Trace, opts AccumulateOptions) (*Accumulated, error) {
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	acc, err := newAccumulated(t.Meta, opts)
	if err != nil {
		return nil, err
	}
	var buf []mpi.Message
	for i := range t.Events {
		if err := acc.addEvent(t.Events[i], world, &buf); err != nil {
			return nil, fmt.Errorf("comm: event %d: %w", i, err)
		}
	}
	if err := acc.flushCollectives(world, &buf); err != nil {
		return nil, err
	}
	acc.Shards = 1
	return acc, nil
}

// minShardEvents is the smallest event count worth sharding; below it
// the goroutine and merge overhead exceeds the accumulation work.
const minShardEvents = 2048

// AccumulateParallel builds the same matrices as Accumulate but splits
// the event stream into contiguous shards, accumulates each shard into
// a private partial on the runner's workers, and merges the partials in
// shard order. All accumulation is exact integer arithmetic, so the
// result is identical to a sequential pass; short traces (or a
// sequential runner) fall back to Accumulate directly.
func AccumulateParallel(t *trace.Trace, opts AccumulateOptions, run parallel.Runner) (*Accumulated, error) {
	shards := run.Workers()
	if max := len(t.Events) / minShardEvents; shards > max {
		shards = max
	}
	if shards <= 1 {
		return Accumulate(t, opts)
	}
	world, err := mpi.World(t.Meta.Ranks)
	if err != nil {
		return nil, err
	}
	parts := make([]*Accumulated, shards)
	per := (len(t.Events) + shards - 1) / shards
	err = run.ForEachErr(shards, func(s int) error {
		lo, hi := s*per, (s+1)*per
		if hi > len(t.Events) {
			hi = len(t.Events)
		}
		part, err := newAccumulated(t.Meta, opts)
		if err != nil {
			return err
		}
		var buf []mpi.Message
		for i := lo; i < hi; i++ {
			if err := part.addEvent(t.Events[i], world, &buf); err != nil {
				return fmt.Errorf("comm: event %d: %w", i, err)
			}
		}
		parts[s] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	acc := parts[0]
	for _, part := range parts[1:] {
		if err := acc.merge(part); err != nil {
			return nil, err
		}
	}
	var buf []mpi.Message
	if err := acc.flushCollectives(world, &buf); err != nil {
		return nil, err
	}
	acc.Shards = shards
	return acc, nil
}

// merge folds another shard's partial accumulation (same trace, same
// options, collectives not yet flushed) into a.
func (a *Accumulated) merge(o *Accumulated) error {
	if err := a.P2P.Merge(o.P2P); err != nil {
		return err
	}
	if err := a.Wire.Merge(o.Wire); err != nil {
		return err
	}
	if err := addVolume(&a.CallerP2PBytes, o.CallerP2PBytes, "point-to-point"); err != nil {
		return err
	}
	if err := addVolume(&a.CallerCollBytes, o.CallerCollBytes, "collective"); err != nil {
		return err
	}
	for k, n := range o.collCounts {
		a.collCounts[k] += n
	}
	return nil
}

// AccumulateStream builds the matrices from a streaming trace reader,
// without materializing the event list.
func AccumulateStream(r *trace.Reader, opts AccumulateOptions) (*Accumulated, error) {
	world, err := mpi.World(r.Meta().Ranks)
	if err != nil {
		return nil, err
	}
	acc, err := newAccumulated(r.Meta(), opts)
	if err != nil {
		return nil, err
	}
	var buf []mpi.Message
	for i := 0; ; i++ {
		e, err := r.Read()
		if err == io.EOF {
			if err := acc.flushCollectives(world, &buf); err != nil {
				return nil, err
			}
			acc.Shards = 1
			return acc, nil
		}
		if err != nil {
			return nil, err
		}
		if err := acc.addEvent(e, world, &buf); err != nil {
			return nil, fmt.Errorf("comm: event %d: %w", i, err)
		}
	}
}

func newAccumulated(meta trace.Meta, opts AccumulateOptions) (*Accumulated, error) {
	p2p, err := NewMatrix(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	wire, err := NewMatrix(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	return &Accumulated{
		Meta: meta, P2P: p2p, Wire: wire,
		strategy:   opts.Strategy,
		collCounts: make(map[collKey]uint64),
	}, nil
}

// collKey identifies a collective event shape; identical collective rounds
// (same caller, op, root, and payload) repeat many times in iterative
// applications, so Accumulate counts them and expands each distinct shape
// only once, with AddN applying the multiplicity.
type collKey struct {
	rank  int
	op    trace.Op
	root  int
	bytes uint64
}

func (a *Accumulated) addEvent(e trace.Event, world *mpi.Comm, buf *[]mpi.Message) error {
	switch {
	case e.Op == trace.OpSend:
		if err := addVolume(&a.CallerP2PBytes, e.Bytes, "point-to-point"); err != nil {
			return err
		}
	case e.Op.IsCollective():
		if err := addVolume(&a.CallerCollBytes, e.Bytes, "collective"); err != nil {
			return err
		}
		if err := e.Validate(world.Size()); err != nil {
			return err
		}
		a.collCounts[collKey{rank: e.Rank, op: e.Op, root: e.Root, bytes: e.Bytes}]++
		return nil
	}
	msgs, err := mpi.ExpandEvent((*buf)[:0], e, world, mpi.ExpandOptions{Strategy: a.strategy})
	if err != nil {
		return err
	}
	*buf = msgs
	for _, msg := range msgs {
		if err := a.Wire.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
			return err
		}
		if !msg.FromCollective {
			if err := a.P2P.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// addVolume adds bytes to a caller-side total, failing past MaxVolume.
func addVolume(total *uint64, bytes uint64, kind string) error {
	if bytes > MaxVolume-*total {
		return fmt.Errorf("comm: %s caller bytes %d + %d pass %d B (MaxVolume)", kind, *total, bytes, uint64(MaxVolume))
	}
	*total += bytes
	return nil
}

// flushCollectives expands the counted collective shapes into the wire
// matrix.
func (a *Accumulated) flushCollectives(world *mpi.Comm, buf *[]mpi.Message) error {
	for k, count := range a.collCounts {
		e := trace.Event{Rank: k.rank, Op: k.op, Peer: -1, Root: k.root, Bytes: k.bytes}
		msgs, err := mpi.ExpandEvent((*buf)[:0], e, world, mpi.ExpandOptions{Strategy: a.strategy})
		if err != nil {
			return err
		}
		*buf = msgs
		for _, msg := range msgs {
			if err := a.Wire.AddN(msg.Src, msg.Dst, msg.Bytes, count); err != nil {
				return err
			}
		}
	}
	a.collCounts = make(map[collKey]uint64)
	return nil
}
