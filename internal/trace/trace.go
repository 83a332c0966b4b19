// Package trace defines the MPI event model used by all locality analyses
// and a dumpi-like trace container format.
//
// The original study consumes traces in the dumpi format produced by
// sst-dumpi and published by Sandia National Laboratories. Those traces
// record every MPI call along with its parameters and CPU/wall timestamps.
// This package provides the same information model: a Trace is a metadata
// header plus an ordered stream of Events, each describing one MPI call
// made by one rank. Binary and text codecs are in codec.go.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Op identifies an MPI operation recorded in a trace.
type Op uint8

// MPI operations covered by the model. Point-to-point operations carry a
// peer rank; collectives carry a root where applicable and address the
// whole communicator.
const (
	OpInvalid Op = iota
	OpSend       // MPI_Send / MPI_Isend: Rank -> Peer, Bytes payload
	OpRecv       // MPI_Recv / MPI_Irecv: Peer -> Rank (accounting side only)
	OpBcast
	OpReduce
	OpAllreduce
	OpGather
	OpGatherv
	OpScatter
	OpScatterv
	OpAllgather
	OpAllgatherv
	OpAlltoall
	OpAlltoallv
	OpReduceScatter
	OpBarrier
	opSentinel // keep last
)

var opNames = [...]string{
	OpInvalid:       "invalid",
	OpSend:          "send",
	OpRecv:          "recv",
	OpBcast:         "bcast",
	OpReduce:        "reduce",
	OpAllreduce:     "allreduce",
	OpGather:        "gather",
	OpGatherv:       "gatherv",
	OpScatter:       "scatter",
	OpScatterv:      "scatterv",
	OpAllgather:     "allgather",
	OpAllgatherv:    "allgatherv",
	OpAlltoall:      "alltoall",
	OpAlltoallv:     "alltoallv",
	OpReduceScatter: "reducescatter",
	OpBarrier:       "barrier",
}

// String returns the lower-case MPI-ish name of the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a known operation.
func (o Op) Valid() bool { return o > OpInvalid && o < opSentinel }

// IsP2P reports whether the operation is point-to-point.
func (o Op) IsP2P() bool { return o == OpSend || o == OpRecv }

// IsCollective reports whether the operation is a collective.
func (o Op) IsCollective() bool { return o.Valid() && !o.IsP2P() }

// ParseOp converts a name produced by Op.String back into an Op.
func ParseOp(s string) (Op, error) {
	for i, n := range opNames {
		if n == s && Op(i).Valid() {
			return Op(i), nil
		}
	}
	return OpInvalid, fmt.Errorf("trace: unknown op %q", s)
}

// Event is one recorded MPI call.
type Event struct {
	// Rank is the calling rank.
	Rank int
	// Op is the MPI operation.
	Op Op
	// Peer is the destination (OpSend) or source (OpRecv) rank for
	// point-to-point operations; -1 otherwise.
	Peer int
	// Root is the root rank for rooted collectives (bcast, reduce,
	// gather, scatter); -1 otherwise.
	Root int
	// Bytes is the payload size of the call as recorded at the caller:
	// for p2p the message size, for collectives the per-caller buffer
	// contribution (the collective expansion in package mpi defines how
	// this is spread over the communicator).
	Bytes uint64
	// Comm identifies the communicator; 0 is MPI_COMM_WORLD. The study
	// only considers traces using the global communicator.
	Comm int32
	// Start and End are wall-clock timestamps in nanoseconds since the
	// start of the run.
	Start uint64
	End   uint64
}

// Validate checks internal consistency of the event against the given
// communicator size.
func (e Event) Validate(ranks int) error {
	if !e.Op.Valid() {
		return fmt.Errorf("trace: invalid op %d", e.Op)
	}
	if e.Rank < 0 || e.Rank >= ranks {
		return fmt.Errorf("trace: rank %d out of range [0,%d)", e.Rank, ranks)
	}
	if e.Op.IsP2P() {
		if e.Peer < 0 || e.Peer >= ranks {
			return fmt.Errorf("trace: peer %d out of range [0,%d)", e.Peer, ranks)
		}
		if e.Peer == e.Rank {
			return fmt.Errorf("trace: self message on rank %d", e.Rank)
		}
	}
	switch e.Op {
	case OpBcast, OpReduce, OpGather, OpGatherv, OpScatter, OpScatterv:
		if e.Root < 0 || e.Root >= ranks {
			return fmt.Errorf("trace: root %d out of range [0,%d)", e.Root, ranks)
		}
	}
	if e.End < e.Start {
		return fmt.Errorf("trace: end %d before start %d", e.End, e.Start)
	}
	return nil
}

// Meta describes a whole trace.
type Meta struct {
	// App is the application name, e.g. "LULESH".
	App string
	// Ranks is the size of MPI_COMM_WORLD.
	Ranks int
	// WallTime is the total execution time of the traced run in seconds.
	// The paper's utilization metric (eq. 5) divides by this.
	WallTime float64
}

// maxRanks is the largest rank count a trace can declare: the binary
// codec stores peer and root ranks as int32.
const maxRanks = math.MaxInt32

// Validate checks the metadata.
func (m Meta) Validate() error {
	if m.Ranks <= 0 || m.Ranks > maxRanks {
		return fmt.Errorf("trace: rank count %d outside [1, %d]", m.Ranks, maxRanks)
	}
	// !(x >= 0) also catches NaN, which compares false to everything.
	if !(m.WallTime >= 0) || math.IsInf(m.WallTime, 1) {
		return fmt.Errorf("trace: wall time %v s (need finite, >= 0)", m.WallTime)
	}
	return nil
}

// Trace is a fully materialized trace: metadata plus an ordered event list.
// Large traces can instead be consumed as a Source.
type Trace struct {
	Meta   Meta
	Events []Event
}

// Source is a trace read in batches of events. Three kinds exist: a
// materialized trace (Trace.Source, one batch), a Reader over the binary
// format, and a generated workload, which stamps its events as they are
// read.
type Source interface {
	// Meta describes the trace.
	Meta() Meta
	// Remaining returns the number of events still to come. A Reader
	// takes it from its header, which its records need not honour; size
	// memory by Prealloc, not by Remaining.
	Remaining() uint64
	// Next returns the next batch of events, which the caller must not
	// modify and which may be overwritten by the following call. It
	// returns io.EOF with the last batch (which may be empty); on any
	// other error, the batch holds the events before the failing one.
	Next() ([]Event, error)
}

// Source returns the trace as a Source of one batch, its Events.
func (t *Trace) Source() Source { return &eventList{meta: t.Meta, events: t.Events} }

// eventList is a materialized trace read as a Source.
type eventList struct {
	meta   Meta
	events []Event
}

func (l *eventList) Meta() Meta        { return l.meta }
func (l *eventList) Remaining() uint64 { return uint64(len(l.events)) }

func (l *eventList) Next() ([]Event, error) {
	batch := l.events
	l.events = nil
	return batch, io.EOF
}

// maxPrealloc caps the events a consumer makes room for on a Reader
// header's word alone: a 26-byte upload can declare 2^24 events.
// Longer traces grow past it as their records arrive.
const maxPrealloc = 1 << 16

// Prealloc returns how many events a consumer of s may make room for
// before reading it: s.Remaining(), or at most maxPrealloc for a Reader,
// whose count is its header's claim.
func Prealloc(s Source) int {
	n := s.Remaining()
	if _, ok := s.(*Reader); ok {
		n = min(n, maxPrealloc)
	}
	return int(n)
}

// Collect reads a source to its end into a materialized trace.
func Collect(s Source) (*Trace, error) {
	t := &Trace{Meta: s.Meta(), Events: make([]Event, 0, Prealloc(s))}
	for {
		batch, err := s.Next()
		t.Events = append(t.Events, batch...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Validate checks metadata and every event.
func (t *Trace) Validate() error {
	if err := t.Meta.Validate(); err != nil {
		return err
	}
	for i, e := range t.Events {
		if err := e.Validate(t.Meta.Ranks); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// TotalBytes returns the sum of payload bytes over all events, split into
// point-to-point and collective contributions. Note that collective bytes
// are caller-side buffer sizes, not network volume; see package mpi for the
// expansion into wire messages.
func (t *Trace) TotalBytes() (p2p, coll uint64) {
	return byteSums(t.Events)
}

// SumBytes reads s to its end and returns TotalBytes' two sums over its
// events.
func SumBytes(s Source) (p2p, coll uint64, err error) {
	for {
		batch, err := s.Next()
		p, c := byteSums(batch)
		p2p, coll = p2p+p, coll+c
		if err == io.EOF {
			return p2p, coll, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// byteSums returns the point-to-point and collective payload sums of
// events.
func byteSums(events []Event) (p2p, coll uint64) {
	for i := range events {
		switch e := &events[i]; {
		case e.Op == OpSend:
			p2p += e.Bytes
		case e.Op.IsCollective():
			coll += e.Bytes
		}
	}
	return p2p, coll
}

// ErrTruncated is reported by readers when a trace ends mid-record.
var ErrTruncated = errors.New("trace: truncated input")
