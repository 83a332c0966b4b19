// Package comm accumulates traced MPI traffic into communication matrices:
// per ordered rank pair, the total bytes, message count, and packet count.
//
// Two matrices matter to the study: the point-to-point matrix (what the
// hardware-agnostic MPI-level metrics — rank locality, selectivity, peers —
// are computed from) and the full wire matrix including expanded
// collectives (what the topology-level metrics — packet hops, utilization —
// are computed from). Accumulate builds both in one streaming pass, each
// through a Builder, whose Matrix method hands the matrix over read-only.
//
// A collective that sends one message from its caller to every other rank
// (under the paper's direct translation: allreduce, allgather, alltoall,
// reduce-scatter, and bcast or scatter at the root) is stored as one
// uniform term on the caller's wire row, not as ranks−1 pairs; every
// reader still reports the fully expanded matrix.
package comm

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

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

// Plus returns the sum of two entries.
func (e Entry) Plus(o Entry) Entry {
	return Entry{Bytes: e.Bytes + o.Bytes, Messages: e.Messages + o.Messages, Packets: e.Packets + o.Packets}
}

// Matrix is a read-only communication matrix over ranks 0..Ranks-1,
// stored row-wise (one destination row per source rank) so that
// per-source queries — which the rank-level metrics issue for every rank
// — touch only that rank's partners rather than the whole pair set. A
// Builder writes it, and nothing writes to it once Builder.Matrix has
// returned it, so it may be shared between goroutines.
//
// A row's own entries are either sorted by destination, or dense: one
// Entry per destination rank, present iff Messages != 0. A row may also
// carry a uniform term: one Entry added to every destination except the
// source. Every reader reports the row with its term merged in.
type Matrix struct {
	ranks      int
	packetSize int
	// Each row is dense (dense[src] != nil) or sorted; uniform is nil
	// when no row carries a term.
	dense      [][]Entry
	sorted     [][]DstEntry
	uniform    []Entry
	pairs      int
	totalBytes uint64
	totalMsgs  uint64
	totalPkts  uint64
}

// DstEntry is one entry of a sorted row: a destination rank and its own
// traffic, without the row's uniform term.
type DstEntry struct {
	Dst int
	Entry
}

// Builder writes a communication matrix. A row's own entries start as a
// destination map; once the map holds denseThreshold destinations the row
// is promoted to a dense per-destination slice, which turns the AddN hot
// path into an array index instead of a map assignment. Matrix ends the
// build: it sorts every sparse row, counts the pairs, and hands over the
// read-only Matrix; any later write fails.
type Builder struct {
	// m holds the ranks, packet size, dense rows, uniform terms and
	// totals recorded so far; sparse holds the other rows.
	m      Matrix
	sparse []map[int]Entry
	built  *Matrix
}

// NewBuilder starts an empty matrix. packetSize <= 0 selects
// DefaultPacketSize.
func NewBuilder(ranks, packetSize int) (*Builder, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("comm: non-positive rank count %d", ranks)
	}
	if packetSize <= 0 {
		packetSize = DefaultPacketSize
	}
	return &Builder{
		m:      Matrix{ranks: ranks, packetSize: packetSize, dense: make([][]Entry, ranks)},
		sparse: make([]map[int]Entry, ranks),
	}, nil
}

// denseThreshold is the row population at which a sparse row is promoted
// to a dense slice: a quarter of the rank space, floored so tiny matrices
// stay in cheap maps.
func (b *Builder) denseThreshold() int {
	return max(b.m.ranks/4, 16)
}

// errBuilt is what a write to a builder returns once Matrix has run.
var errBuilt = errors.New("comm: write to a builder after Matrix")

// Add records one message from src to dst.
func (b *Builder) Add(src, dst int, bytes uint64) error {
	return b.AddN(src, dst, bytes, 1)
}

// AddN records n identical messages of the given size from src to dst in
// one operation (used to coalesce repeated collective rounds).
func (b *Builder) AddN(src, dst int, bytes uint64, n uint64) error {
	m := &b.m
	switch {
	case b.built != nil:
		return errBuilt
	case src < 0 || src >= m.ranks || dst < 0 || dst >= m.ranks:
		return fmt.Errorf("comm: pair (%d,%d) out of range [0,%d)", src, dst, m.ranks)
	case src == dst:
		return fmt.Errorf("comm: self message on rank %d", src)
	case n == 0:
		return nil
	}
	if hi, vol := bits.Mul64(bytes, n); hi != 0 || vol > MaxVolume-m.totalBytes {
		return fmt.Errorf("comm: %d messages of %d B from rank %d to %d take the matrix past %d B (MaxVolume)",
			n, bytes, src, dst, uint64(MaxVolume))
	}
	add := Entry{Bytes: bytes * n, Messages: n, Packets: m.PacketsFor(bytes) * n}
	if d := m.dense[src]; d != nil {
		d[dst] = d[dst].Plus(add)
	} else {
		row := b.sparse[src]
		if row == nil {
			row = make(map[int]Entry)
			b.sparse[src] = row
		}
		row[dst] = row[dst].Plus(add)
		if len(row) >= b.denseThreshold() {
			d := make([]Entry, m.ranks)
			for dst, e := range row {
				d[dst] = e
			}
			m.dense[src], b.sparse[src] = d, nil
		}
	}
	m.totalBytes += add.Bytes
	m.totalMsgs += n
	m.totalPkts += add.Packets
	return nil
}

// addUniform records n >= 1 rounds of a collective shape that sends a
// message of the given size from src to every other rank, as src's
// uniform term. Only accumulate calls it.
func (b *Builder) addUniform(src int, bytes, n uint64) error {
	m := &b.m
	if b.built != nil {
		return errBuilt
	}
	others := uint64(m.ranks - 1)
	hi, perDst := bits.Mul64(bytes, n)
	hi2, vol := bits.Mul64(perDst, others)
	if hi != 0 || hi2 != 0 || vol > MaxVolume-m.totalBytes {
		return fmt.Errorf("comm: %d rounds of %d B from rank %d to each of the %d other ranks take the matrix past %d B (MaxVolume)",
			n, bytes, src, others, uint64(MaxVolume))
	}
	if m.uniform == nil {
		m.uniform = make([]Entry, m.ranks)
	}
	pkts := m.PacketsFor(bytes) * n
	m.uniform[src] = m.uniform[src].Plus(Entry{Bytes: perDst, Messages: n, Packets: pkts})
	m.totalBytes += vol
	m.totalMsgs += n * others
	m.totalPkts += pkts * others
	return nil
}

// Matrix ends the build and returns the matrix: it stores every sparse
// row sorted by destination, all rows cut from one backing array, and
// counts the pairs. Later writes to the builder fail, and later calls
// return the same matrix.
func (b *Builder) Matrix() *Matrix {
	if b.built != nil {
		return b.built
	}
	m := b.m
	n := 0
	for _, row := range b.sparse {
		n += len(row)
	}
	all := make([]DstEntry, 0, n)
	m.sorted = make([][]DstEntry, m.ranks)
	for src, row := range b.sparse {
		if len(row) == 0 {
			continue
		}
		start := len(all)
		for dst, e := range row {
			all = append(all, DstEntry{Dst: dst, Entry: e})
		}
		m.sorted[src] = all[start:len(all):len(all)]
		slices.SortFunc(m.sorted[src], func(x, y DstEntry) int { return cmp.Compare(x.Dst, y.Dst) })
	}
	for src := range m.ranks {
		row := m.Row(src)
		switch {
		case row.Uniform.Messages != 0:
			// The term reaches every other rank, and a row holds no
			// entry for its own source.
			m.pairs += m.ranks - 1
		case row.Dense != nil:
			for _, e := range row.Dense {
				if e.Messages != 0 {
					m.pairs++
				}
			}
		default:
			m.pairs += len(row.Sorted)
		}
	}
	b.built, b.m, b.sparse = &m, Matrix{}, nil
	return b.built
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
	if dst < 0 || dst >= m.ranks {
		return Entry{}
	}
	row := m.Row(src)
	var e Entry
	if row.Dense != nil {
		e = row.Dense[dst]
	} else if i, ok := slices.BinarySearchFunc(row.Sorted, dst, func(x DstEntry, dst int) int { return cmp.Compare(x.Dst, dst) }); ok {
		e = row.Sorted[i].Entry
	}
	if dst == src {
		return e
	}
	return e.Plus(row.Uniform)
}

// Each calls fn for every (pair, entry) with recorded traffic, in
// ascending source order and, within a source, ascending destination
// order.
func (m *Matrix) Each(fn func(k Key, e Entry)) {
	for src := 0; src < m.ranks; src++ {
		m.EachDst(src, func(dst int, e Entry) {
			fn(Key{Src: src, Dst: dst}, e)
		})
	}
}

// EachDst calls fn for every recorded destination of the given source
// rank, in ascending destination order, with the row's uniform term
// merged in. It is the allocation-free alternative to BySource for
// callers that stream rather than slice.
func (m *Matrix) EachDst(src int, fn func(dst int, e Entry)) {
	row := m.Row(src)
	if row.Dense == nil && row.Uniform.Messages == 0 {
		for _, e := range row.Sorted {
			fn(e.Dst, e.Entry)
		}
		return
	}
	sorted := row.Sorted
	for dst := 0; dst < m.ranks; dst++ {
		var e Entry
		if row.Dense != nil {
			e = row.Dense[dst]
		} else if len(sorted) > 0 && sorted[0].Dst == dst {
			e, sorted = sorted[0].Entry, sorted[1:]
		}
		if dst != src {
			e = e.Plus(row.Uniform)
		}
		if e.Messages != 0 {
			fn(dst, e)
		}
	}
}

// RowView is one source row read in place; every row of a Matrix reads as
// one. When Dense is non-nil it holds the row's own entries indexed by
// destination rank, a destination without its own traffic having a zero
// Entry; otherwise Sorted lists them in ascending destination order (none
// for a row without its own traffic). Uniform, which may be zero, is added
// to every destination except the source. The slices are the matrix's
// own; do not modify them.
type RowView struct {
	Dense   []Entry
	Sorted  []DstEntry
	Uniform Entry
}

// Row returns src's row for reading in place; a rank outside the matrix
// reads as an empty row.
func (m *Matrix) Row(src int) RowView {
	if src < 0 || src >= m.ranks {
		return RowView{}
	}
	row := RowView{Dense: m.dense[src], Sorted: m.sorted[src]}
	if m.uniform != nil {
		row.Uniform = m.uniform[src]
	}
	return row
}

// BySource returns, for the given source rank, the destination ranks it
// sends to and the per-destination byte volumes (parallel slices, in
// ascending destination order).
func (m *Matrix) BySource(src int) (dsts []int, vols []float64) {
	return m.AppendBySource(src, nil, nil)
}

// AppendBySource appends the destination ranks and per-destination byte
// volumes of src, in ascending destination order, onto the given slices
// (which may be nil) and returns them, letting per-rank metric loops reuse
// scratch buffers instead of allocating a fresh pair per rank. When the
// row is empty the inputs are returned unchanged, so a nil-in/nil-out call
// matches BySource.
func (m *Matrix) AppendBySource(src int, dsts []int, vols []float64) ([]int, []float64) {
	m.EachDst(src, func(dst int, e Entry) {
		dsts = append(dsts, dst)
		vols = append(vols, float64(e.Bytes))
	})
	return dsts, vols
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
	return accumulate(t.Meta, opts, func() ([]trace.Event, error) { return t.Events, io.EOF })
}

// AccumulateParallel is Accumulate; the runner is ignored. It remains
// only because the benchmark module calls it, and goes with the next
// change to that module.
//
// Deprecated: call Accumulate.
func AccumulateParallel(t *trace.Trace, opts AccumulateOptions, _ parallel.Runner) (*Accumulated, error) {
	return Accumulate(t, opts)
}

// AccumulateStream builds the matrices from a streaming trace reader,
// without materializing the event list: it reads the events into one
// reused buffer of 256.
func AccumulateStream(r *trace.Reader, opts AccumulateOptions) (*Accumulated, error) {
	buf := make([]trace.Event, 256)
	return accumulate(r.Meta(), opts, func() ([]trace.Event, error) {
		for n := range buf {
			e, err := r.Read()
			if err != nil {
				return buf[:n], err
			}
			buf[n] = e
		}
		return buf, nil
	})
}

// collKey identifies a collective event shape; identical collective rounds
// (same caller, op, root, and payload) repeat many times in iterative
// applications, so accumulate counts them and expands each distinct shape
// only once, with AddN applying the multiplicity.
type collKey struct {
	rank  int
	op    trace.Op
	root  int
	bytes uint64
}

// accumulate is the one event loop behind Accumulate and AccumulateStream.
// It takes batches of events from next (which returns io.EOF, or another
// error, with the events it read last), records point-to-point messages
// into both builders as they come, counts collective shapes, and expands
// each counted shape into the wire builder once the stream ends: into a
// uniform term when it sends one message to every other rank
// (reachesAll). Then both matrices are built.
func accumulate(meta trace.Meta, opts AccumulateOptions, next func() ([]trace.Event, error)) (*Accumulated, error) {
	world, err := mpi.World(meta.Ranks)
	if err != nil {
		return nil, err
	}
	p2p, err := NewBuilder(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	wire, err := NewBuilder(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	acc := &Accumulated{Meta: meta}
	expand := mpi.ExpandOptions{Strategy: opts.Strategy}
	colls := make(map[collKey]uint64)
	var buf []mpi.Message
	for i := 0; ; {
		batch, readErr := next()
		for j := range batch {
			if buf, err = acc.addEvent(&batch[j], p2p, wire, world, expand, colls, buf); err != nil {
				return nil, fmt.Errorf("comm: event %d: %w", i, err)
			}
			i++
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return nil, readErr
		}
	}
	// Shapes expand in sorted order so that a trace whose collectives take
	// the wire matrix past MaxVolume fails with the same error on every
	// run.
	shapes := make([]collKey, 0, len(colls))
	for k := range colls {
		shapes = append(shapes, k)
	}
	slices.SortFunc(shapes, func(a, b collKey) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.op, b.op), cmp.Compare(a.root, b.root), cmp.Compare(a.bytes, b.bytes))
	})
	seen := make([]int, meta.Ranks)
	for i, k := range shapes {
		e := trace.Event{Rank: k.rank, Op: k.op, Peer: -1, Root: k.root, Bytes: k.bytes}
		if buf, err = mpi.ExpandEvent(buf[:0], e, world, expand); err != nil {
			return nil, err
		}
		count := colls[k]
		if reachesAll(buf, k.rank, seen, i+1) {
			if err := wire.addUniform(k.rank, buf[0].Bytes, count); err != nil {
				return nil, err
			}
			continue
		}
		for _, msg := range buf {
			if err := wire.AddN(msg.Src, msg.Dst, msg.Bytes, count); err != nil {
				return nil, err
			}
		}
	}
	acc.P2P, acc.Wire = p2p.Matrix(), wire.Matrix()
	return acc, nil
}

// reachesAll reports whether msgs sends one message of one size from src
// to every other rank: one message per other rank, all from src with
// equal bytes, to distinct destinations other than src. seen holds one
// mark per rank, none equal to stamp, and is left marked with stamp.
func reachesAll(msgs []mpi.Message, src int, seen []int, stamp int) bool {
	if len(msgs) == 0 || len(msgs) != len(seen)-1 {
		return false
	}
	for _, msg := range msgs {
		if msg.Src != src || msg.Bytes != msgs[0].Bytes || msg.Dst == src || seen[msg.Dst] == stamp {
			return false
		}
		seen[msg.Dst] = stamp
	}
	return true
}

// addEvent records one traced event: a collective is validated and
// counted by shape in colls, anything else is expanded into buf (returned
// for reuse) and added to both builders.
func (a *Accumulated) addEvent(e *trace.Event, p2p, wire *Builder, world *mpi.Comm, expand mpi.ExpandOptions, colls map[collKey]uint64, buf []mpi.Message) ([]mpi.Message, error) {
	switch {
	case e.Op == trace.OpSend:
		if err := addVolume(&a.CallerP2PBytes, e.Bytes, "point-to-point"); err != nil {
			return buf, err
		}
	case e.Op.IsCollective():
		if err := addVolume(&a.CallerCollBytes, e.Bytes, "collective"); err != nil {
			return buf, err
		}
		if err := e.Validate(world.Size()); err != nil {
			return buf, err
		}
		colls[collKey{rank: e.Rank, op: e.Op, root: e.Root, bytes: e.Bytes}]++
		return buf, nil
	}
	buf, err := mpi.ExpandEvent(buf[:0], *e, world, expand)
	if err != nil {
		return buf, err
	}
	for _, msg := range buf {
		if err := wire.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
			return buf, err
		}
		if err := p2p.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// addVolume adds bytes to a caller-side total, failing past MaxVolume.
func addVolume(total *uint64, bytes uint64, kind string) error {
	if bytes > MaxVolume-*total {
		return fmt.Errorf("comm: %s caller bytes %d + %d pass %d B (MaxVolume)", kind, *total, bytes, uint64(MaxVolume))
	}
	*total += bytes
	return nil
}
