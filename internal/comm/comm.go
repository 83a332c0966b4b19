// Package comm accumulates traced MPI traffic into communication matrices:
// per ordered rank pair, the total bytes, message count, and packet count.
//
// Two matrices matter to the study: the point-to-point matrix (what the
// hardware-agnostic MPI-level metrics — rank locality, selectivity, peers —
// are computed from) and the full wire matrix including expanded
// collectives (what the topology-level metrics — packet hops, utilization —
// are computed from). Accumulate builds both in one streaming pass.
//
// A collective that sends one message from its caller to every other rank
// (under the paper's direct translation: allreduce, allgather, alltoall,
// reduce-scatter, and bcast or scatter at the root) is stored as one
// uniform term on the caller's wire row, not as ranks−1 pairs; every
// reader still reports the fully expanded matrix.
package comm

import (
	"cmp"
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

// Matrix is a communication matrix over ranks 0..Ranks-1, stored row-wise
// (one destination row per source rank) so that per-source queries — which
// the rank-level metrics issue for every rank — touch only that rank's
// partners rather than the whole pair set.
//
// A row's own entries start as a sparse destination map; once the map
// holds denseThreshold destinations the row is promoted to a dense
// per-destination slice, where an entry is present iff Messages != 0.
// Dense rows turn the AddN hot path into an array index instead of a map
// assignment, which is where the accumulation grid spent most of its
// allocations.
//
// Accumulate may also give a wire row a uniform term: one Entry added to
// every destination except the source. When accumulation ends, each sparse
// row that carries a term is frozen into a slice sorted by destination,
// cut from one backing array per matrix, so that readers merge the term in
// ascending destination order without map lookups. Rows without a term
// keep their map or dense layout. A matrix built with NewMatrix and Add
// has no terms.
type Matrix struct {
	ranks      int
	packetSize int
	sparse     []map[int]Entry
	dense      [][]Entry
	// uniform holds each row's uniform term, nil until accumulate adds
	// the first; frozen holds the frozen rows, nil until accumulate ends.
	uniform    []Entry
	frozen     [][]DstEntry
	pairs      int
	totalBytes uint64
	totalMsgs  uint64
	totalPkts  uint64
}

// DstEntry is one entry of a frozen row: a destination rank and its own
// traffic, without the row's uniform term.
type DstEntry struct {
	Dst int
	Entry
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

// promoteRow converts a sparse or frozen row into its dense representation.
func (m *Matrix) promoteRow(src int) {
	d := make([]Entry, m.ranks)
	for dst, e := range m.sparse[src] {
		d[dst] = e
	}
	if f := m.frozenRow(src); f != nil {
		for _, e := range f {
			d[e.Dst] = e.Entry
		}
		m.frozen[src] = nil
	}
	m.dense[src], m.sparse[src] = d, nil
}

// term returns src's uniform term, zero when the row has none.
func (m *Matrix) term(src int) Entry {
	if m.uniform == nil {
		return Entry{}
	}
	return m.uniform[src]
}

// frozenRow returns src's frozen entries, nil when the row is not frozen.
func (m *Matrix) frozenRow(src int) []DstEntry {
	if m.frozen == nil {
		return nil
	}
	return m.frozen[src]
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
	// A pair that the row's uniform term reaches is counted already.
	counted := m.term(src).Messages != 0
	if counted && m.frozen != nil && m.dense[src] == nil {
		m.promoteRow(src) // a frozen row takes new entries densely
	}
	if d := m.dense[src]; d != nil {
		e := &d[dst]
		if e.Messages == 0 && !counted {
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
		if !existed && !counted {
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

// addUniform records n >= 1 rounds of a collective shape that sends a
// message of the given size from src to every other rank, as src's
// uniform term. Only accumulate calls it, before it freezes the matrix.
func (m *Matrix) addUniform(src int, bytes, n uint64) error {
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
	u := &m.uniform[src]
	if u.Messages == 0 {
		// The term reaches every other rank: the pairs the row did not
		// hold yet are new.
		own := len(m.sparse[src])
		for _, e := range m.dense[src] {
			if e.Messages != 0 {
				own++
			}
		}
		m.pairs += m.ranks - 1 - own
	}
	pkts := m.PacketsFor(bytes) * n
	u.Bytes += perDst
	u.Messages += n
	u.Packets += pkts
	m.totalBytes += vol
	m.totalMsgs += n * others
	m.totalPkts += pkts * others
	return nil
}

// freeze stores each sparse row that carries a uniform term as a slice
// sorted by destination, all cut from one backing array. Rows without a
// term keep their map or dense layout.
func (m *Matrix) freeze() {
	if m.uniform == nil {
		return
	}
	n := 0
	for src, u := range m.uniform {
		if u.Messages != 0 {
			n += len(m.sparse[src])
		}
	}
	all := make([]DstEntry, 0, n)
	m.frozen = make([][]DstEntry, m.ranks)
	for src, u := range m.uniform {
		if u.Messages == 0 || len(m.sparse[src]) == 0 {
			continue
		}
		start := len(all)
		for dst, e := range m.sparse[src] {
			all = append(all, DstEntry{Dst: dst, Entry: e})
		}
		row := all[start:len(all):len(all)]
		slices.SortFunc(row, func(a, b DstEntry) int { return cmp.Compare(a.Dst, b.Dst) })
		m.frozen[src], m.sparse[src] = row, nil
	}
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
	var e Entry
	if d := m.dense[src]; d != nil {
		e = d[dst]
	} else if f := m.frozenRow(src); f != nil {
		if i, ok := slices.BinarySearchFunc(f, dst, func(x DstEntry, dst int) int { return cmp.Compare(x.Dst, dst) }); ok {
			e = f[i].Entry
		}
	} else {
		e = m.sparse[src][dst]
	}
	if dst == src {
		return e
	}
	return e.Plus(m.term(src))
}

// Each calls fn for every (pair, entry) with recorded traffic, in
// ascending source order; destinations within a source come in EachDst's
// order.
func (m *Matrix) Each(fn func(k Key, e Entry)) {
	for src := 0; src < m.ranks; src++ {
		m.EachDst(src, func(dst int, e Entry) {
			fn(Key{Src: src, Dst: dst}, e)
		})
	}
}

// EachDst calls fn for every recorded destination of the given source
// rank, with the row's uniform term merged in. Dense rows and rows with a
// uniform term are visited in ascending destination order; the order of a
// sparse row without one is unspecified. It is the allocation-free
// alternative to BySource for callers that stream rather than slice.
func (m *Matrix) EachDst(src int, fn func(dst int, e Entry)) {
	if src < 0 || src >= m.ranks {
		return
	}
	row, ok := m.Row(src)
	if !ok {
		for dst, e := range m.sparse[src] {
			fn(dst, e)
		}
		return
	}
	frozen := row.Sorted
	for dst := 0; dst < m.ranks; dst++ {
		var e Entry
		if row.Dense != nil {
			e = row.Dense[dst]
		} else if len(frozen) > 0 && frozen[0].Dst == dst {
			e, frozen = frozen[0].Entry, frozen[1:]
		}
		if dst != src {
			e = e.Plus(row.Uniform)
		}
		if e.Messages != 0 {
			fn(dst, e)
		}
	}
}

// RowView is one source row read in place. When Dense is non-nil it holds
// the row's own entries indexed by destination rank, a destination without
// its own traffic having a zero Entry; otherwise Sorted lists them in
// ascending destination order. Uniform, which may be zero, is added to
// every destination except the source. The slices are the matrix's own; do
// not modify them.
type RowView struct {
	Dense   []Entry
	Sorted  []DstEntry
	Uniform Entry
}

// Row returns src's row for reading in place. It returns false for a
// sparse row without a uniform term, which only EachDst visits.
func (m *Matrix) Row(src int) (RowView, bool) {
	if src < 0 || src >= m.ranks {
		return RowView{}, false
	}
	u := m.term(src)
	if m.dense[src] == nil && u.Messages == 0 {
		return RowView{}, false
	}
	return RowView{Dense: m.dense[src], Sorted: m.frozenRow(src), Uniform: u}, true
}

// BySource returns, for the given source rank, the destination ranks it
// sends to and the per-destination byte volumes (parallel slices, in
// EachDst's order).
func (m *Matrix) BySource(src int) (dsts []int, vols []float64) {
	return m.AppendBySource(src, nil, nil)
}

// AppendBySource appends the destination ranks and per-destination byte
// volumes of src, in EachDst's order, onto the given slices (which may be
// nil) and returns them, letting per-rank metric loops reuse scratch
// buffers instead of allocating a fresh pair per rank. When the row is
// empty the inputs are returned unchanged, so a nil-in/nil-out call
// matches BySource.
func (m *Matrix) AppendBySource(src int, dsts []int, vols []float64) ([]int, []float64) {
	if src < 0 || src >= m.ranks {
		return dsts, vols
	}
	if row := m.sparse[src]; dsts == nil && len(row) > 0 {
		dsts = make([]int, 0, len(row))
		vols = make([]float64, 0, len(row))
	}
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
// as they come, counts collective shapes, and expands each counted shape
// into the wire matrix once the stream ends: into a uniform term when it
// sends one message to every other rank (reachesAll). Then the wire
// matrix is frozen.
func accumulate(meta trace.Meta, opts AccumulateOptions, next func() ([]trace.Event, error)) (*Accumulated, error) {
	world, err := mpi.World(meta.Ranks)
	if err != nil {
		return nil, err
	}
	p2p, err := NewMatrix(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	wire, err := NewMatrix(meta.Ranks, opts.PacketSize)
	if err != nil {
		return nil, err
	}
	acc := &Accumulated{Meta: meta, P2P: p2p, Wire: wire}
	expand := mpi.ExpandOptions{Strategy: opts.Strategy}
	colls := make(map[collKey]uint64)
	var buf []mpi.Message
	for i := 0; ; {
		batch, readErr := next()
		for j := range batch {
			if buf, err = acc.addEvent(&batch[j], world, expand, colls, buf); err != nil {
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
	wire.freeze()
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
// for reuse) and added to the matrices.
func (a *Accumulated) addEvent(e *trace.Event, world *mpi.Comm, expand mpi.ExpandOptions, colls map[collKey]uint64, buf []mpi.Message) ([]mpi.Message, error) {
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
		if err := a.Wire.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
			return buf, err
		}
		if !msg.FromCollective {
			if err := a.P2P.Add(msg.Src, msg.Dst, msg.Bytes); err != nil {
				return buf, err
			}
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
