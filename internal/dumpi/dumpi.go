// Package dumpi ingests the ASCII dump format of sst-dumpi traces (the
// output of the dumpi2ascii tool) and converts it into this repository's
// trace model. The study's original input data is exactly such traces —
// one file per rank — so users holding the Sandia archives can run every
// analysis in this repository on the real data instead of the calibrated
// synthetic workloads.
//
// The parser is deliberately tolerant: it extracts the call name, the
// wall-clock enter/return times, and the parameters the locality analyses
// need (count, datatype, dest/root, communicator), and skips records and
// parameters it does not understand. Per the paper, MPI derived datatypes
// of unknown size are counted as one byte per element.
//
// Recognized record shape (dumpi2ascii):
//
//	MPI_Send entering at walltime 11534.0161, cputime 0.0161 seconds in thread 0.
//	int count=278528
//	datatype datatype=10 (MPI_DOUBLE)
//	int dest=1
//	int tag=0
//	comm comm=2 (MPI_COMM_WORLD)
//	MPI_Send returning at walltime 11534.0162, cputime 0.0162 seconds in thread 0.
package dumpi

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"netloc/internal/trace"
)

// datatypeSizes maps the MPI built-in datatypes dumpi prints to byte
// sizes. Unknown or derived datatypes default to 1 byte per element, the
// paper's convention ("we selected one byte as the according size").
var datatypeSizes = map[string]uint64{
	"MPI_CHAR": 1, "MPI_SIGNED_CHAR": 1, "MPI_UNSIGNED_CHAR": 1, "MPI_BYTE": 1,
	"MPI_SHORT": 2, "MPI_UNSIGNED_SHORT": 2,
	"MPI_INT": 4, "MPI_UNSIGNED": 4, "MPI_FLOAT": 4,
	"MPI_LONG": 8, "MPI_UNSIGNED_LONG": 8, "MPI_DOUBLE": 8,
	"MPI_LONG_LONG": 8, "MPI_UNSIGNED_LONG_LONG": 8, "MPI_LONG_LONG_INT": 8,
	"MPI_LONG_DOUBLE": 16, "MPI_DOUBLE_INT": 12, "MPI_FLOAT_INT": 8,
}

// callOps maps dumpi call names to trace operations. Nonblocking variants
// map to the same operations; wait/test and administrative calls are
// skipped.
var callOps = map[string]trace.Op{
	"MPI_Send": trace.OpSend, "MPI_Isend": trace.OpSend,
	"MPI_Ssend": trace.OpSend, "MPI_Rsend": trace.OpSend, "MPI_Bsend": trace.OpSend,
	"MPI_Sendrecv": trace.OpSend, // send half; the recv half is accounted at its sender
	"MPI_Recv":     trace.OpRecv, "MPI_Irecv": trace.OpRecv,
	"MPI_Bcast":          trace.OpBcast,
	"MPI_Reduce":         trace.OpReduce,
	"MPI_Allreduce":      trace.OpAllreduce,
	"MPI_Gather":         trace.OpGather,
	"MPI_Gatherv":        trace.OpGatherv,
	"MPI_Scatter":        trace.OpScatter,
	"MPI_Scatterv":       trace.OpScatterv,
	"MPI_Allgather":      trace.OpAllgather,
	"MPI_Allgatherv":     trace.OpAllgatherv,
	"MPI_Alltoall":       trace.OpAlltoall,
	"MPI_Alltoallv":      trace.OpAlltoallv,
	"MPI_Reduce_scatter": trace.OpReduceScatter,
	"MPI_Barrier":        trace.OpBarrier,
}

// record is one parsed MPI call before conversion.
type record struct {
	name      string
	enterWall float64
	leaveWall float64
	params    map[string]int64
	datatype  string
	counts    []int64 // vector counts (sendcounts=...)
}

// ParseRank parses one rank's dumpi2ascii stream into trace events. The
// rank ID is not part of the dump; it is supplied by the caller (dumpi
// names files like dumpi-<timestamp>-<rank>.bin).
func ParseRank(r io.Reader, rank int) ([]trace.Event, float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var events []trace.Event
	var cur *record
	var baseWall float64
	baseSet := false
	var maxWall float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.Contains(line, " entering at walltime "):
			name, wall, err := parseEnterLeave(line, " entering at walltime ")
			if err != nil {
				return nil, 0, fmt.Errorf("dumpi: line %d: %w", lineNo, err)
			}
			if !baseSet {
				baseWall, maxWall, baseSet = wall, wall, true
			}
			cur = &record{name: name, enterWall: wall, params: map[string]int64{}}

		case strings.Contains(line, " returning at walltime "):
			name, wall, err := parseEnterLeave(line, " returning at walltime ")
			if err != nil {
				return nil, 0, fmt.Errorf("dumpi: line %d: %w", lineNo, err)
			}
			if cur == nil || cur.name != name {
				// Tolerate unmatched returns (truncated dumps).
				cur = nil
				continue
			}
			cur.leaveWall = wall
			maxWall = max(maxWall, cur.enterWall, wall)
			ev, ok, err := convert(cur, rank, baseWall)
			if err != nil {
				return nil, 0, fmt.Errorf("dumpi: line %d: %w", lineNo, err)
			}
			if ok {
				events = append(events, ev)
			}
			cur = nil

		case cur != nil:
			parseParamLine(cur, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	wallSpan := 0.0
	if baseSet {
		wallSpan = maxWall - baseWall
	}
	return events, wallSpan, nil
}

// parseEnterLeave extracts the call name and wall time from an
// entering/returning line.
func parseEnterLeave(line, marker string) (string, float64, error) {
	idx := strings.Index(line, marker)
	name := strings.TrimSpace(line[:idx])
	rest := line[idx+len(marker):]
	// "11534.0161, cputime ..." — the wall time ends at the comma.
	if c := strings.IndexAny(rest, ", "); c >= 0 {
		rest = rest[:c]
	}
	wall, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad walltime in %q: %w", line, err)
	}
	if math.IsNaN(wall) || math.IsInf(wall, 0) {
		return "", 0, fmt.Errorf("walltime %v in %q is not finite", wall, line)
	}
	return name, wall, nil
}

// parseParamLine folds one parameter line into the record. Lines look like
// "int count=278528", "datatype datatype=10 (MPI_DOUBLE)",
// "int dest=1", "int sendcounts=[4](25, 25, 25, 25)".
func parseParamLine(rec *record, line string) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return
	}
	kv := fields[1]
	eq := strings.Index(kv, "=")
	if eq < 0 {
		return
	}
	key := kv[:eq]
	val := kv[eq+1:]
	switch key {
	case "datatype", "sendtype", "recvtype":
		// The human-readable name follows in parentheses.
		if o := strings.Index(line, "("); o >= 0 {
			name := strings.TrimRight(line[o+1:], ")")
			if c := strings.Index(name, ")"); c >= 0 {
				name = name[:c]
			}
			if rec.datatype == "" || key != "recvtype" {
				rec.datatype = strings.TrimSpace(name)
			}
		}
	case "count", "sendcount", "dest", "source", "root", "comm", "commsize":
		if strings.HasPrefix(val, "[") {
			return // vector form handled below
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			// First writer wins so recvcount does not clobber sendcount.
			if _, exists := rec.params[normalizeKey(key)]; !exists {
				rec.params[normalizeKey(key)] = n
			}
		}
	case "sendcounts", "counts", "recvcounts":
		if key == "recvcounts" && len(rec.counts) > 0 {
			return
		}
		rec.counts = parseVector(line)
	}
}

func normalizeKey(k string) string {
	switch k {
	case "sendcount":
		return "count"
	}
	return k
}

// parseVector parses "[4](25, 25, 25, 25)" into its values.
func parseVector(line string) []int64 {
	o := strings.Index(line, "](")
	if o < 0 {
		return nil
	}
	body := line[o+2:]
	if c := strings.LastIndex(body, ")"); c >= 0 {
		body = body[:c]
	}
	parts := strings.Split(body, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		if n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// convert turns a completed record into a trace event; ok is false for
// calls the model skips (waits, administrative calls, recvs are kept for
// completeness). It fails where a byte count or a timestamp would wrap.
func convert(rec *record, rank int, baseWall float64) (ev trace.Event, ok bool, err error) {
	op, known := callOps[rec.name]
	if !known {
		return trace.Event{}, false, nil
	}
	elemSize := uint64(1)
	if s, ok := datatypeSizes[rec.datatype]; ok {
		elemSize = s
	}
	var elems int64
	if len(rec.counts) > 0 {
		for _, c := range rec.counts {
			if (c > 0 && elems > math.MaxInt64-c) || (c < 0 && elems < math.MinInt64-c) {
				return trace.Event{}, false, fmt.Errorf("%s: vector counts overflow int64", rec.name)
			}
			elems += c
		}
	} else {
		elems = rec.params["count"]
	}
	if elems < 0 {
		elems = 0
	}
	hi, nbytes := bits.Mul64(uint64(elems), elemSize)
	if hi != 0 {
		return trace.Event{}, false, fmt.Errorf("%s: %d elements of %d bytes overflow uint64", rec.name, elems, elemSize)
	}
	ev = trace.Event{Rank: rank, Op: op, Peer: -1, Root: -1, Bytes: nbytes}
	if ev.Start, err = wallToNanos(rec.enterWall, baseWall); err != nil {
		return trace.Event{}, false, err
	}
	if ev.End, err = wallToNanos(rec.leaveWall, baseWall); err != nil {
		return trace.Event{}, false, err
	}
	if ev.End < ev.Start {
		ev.End = ev.Start
	}
	switch op {
	case trace.OpSend:
		ev.Peer = int(rec.params["dest"])
	case trace.OpRecv:
		ev.Peer = int(rec.params["source"])
	case trace.OpBcast, trace.OpReduce, trace.OpGather, trace.OpGatherv,
		trace.OpScatter, trace.OpScatterv:
		ev.Root = int(rec.params["root"])
	}
	return ev, true, nil
}

// wallToNanos converts a walltime to nanoseconds after the first call's,
// clamping earlier times to 0 and failing past uint64's range.
func wallToNanos(wall, base float64) (uint64, error) {
	d := (wall - base) * 1e9
	if d < 0 {
		d = 0
	}
	if !(d < math.MaxUint64) {
		return 0, fmt.Errorf("walltime %v s is %v s after the first call, past the nanosecond range", wall, wall-base)
	}
	return uint64(d), nil
}

// LoadTrace assembles a full trace from per-rank dumpi2ascii streams
// (index i is rank i). App names the workload; the wall time is the
// largest per-rank span.
func LoadTrace(app string, rankStreams []io.Reader) (*trace.Trace, error) {
	if len(rankStreams) == 0 {
		return nil, fmt.Errorf("dumpi: no rank streams")
	}
	t := &trace.Trace{Meta: trace.Meta{App: app, Ranks: len(rankStreams)}, Events: []trace.Event{}}
	for rank, r := range rankStreams {
		events, span, err := ParseRank(r, rank)
		if err != nil {
			return nil, fmt.Errorf("dumpi: rank %d: %w", rank, err)
		}
		if span > t.Meta.WallTime {
			t.Meta.WallTime = span
		}
		t.Events = append(t.Events, events...)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
