package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary format ("NLT1"):
//
//	header:
//	  magic   [4]byte  "NLT1"
//	  appLen  uint16   followed by appLen bytes of UTF-8 app name
//	  ranks   uint32
//	  wall    float64  (IEEE 754 bits, seconds)
//	  events  uint64   number of event records
//	record (fixed 45 bytes, little endian):
//	  rank  uint32
//	  op    uint8
//	  peer  int32
//	  root  int32
//	  bytes uint64
//	  comm  int32
//	  start uint64
//	  end   uint64
//
// The format is intentionally simple and versioned via the magic string,
// standing in for the sst-dumpi container the paper's traces use.

const binaryMagic = "NLT1"

// recordSize is the fixed on-disk size of one binary event record.
const recordSize = 4 + 1 + 4 + 4 + 8 + 4 + 8 + 8

// Writer streams a trace to an io.Writer in binary form. The event count
// must be known up front (it is part of the header); use WriteTrace for
// fully materialized traces.
type Writer struct {
	w      *bufio.Writer
	ranks  int
	left   uint64
	closed bool
	// rec is the record Write encodes into; a local array would escape
	// through bufio.Writer.Write and cost one allocation per event.
	rec [recordSize]byte
}

// NewWriter writes the header and returns a Writer expecting exactly
// nEvents subsequent Write calls.
func NewWriter(w io.Writer, meta Meta, nEvents uint64) (*Writer, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if len(meta.App) > math.MaxUint16 {
		return nil, fmt.Errorf("trace: app name too long (%d bytes)", len(meta.App))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	var hdr [2 + 4 + 8 + 8]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(len(meta.App)))
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(meta.Ranks))
	binary.LittleEndian.PutUint64(hdr[6:14], math.Float64bits(meta.WallTime))
	binary.LittleEndian.PutUint64(hdr[14:22], nEvents)
	// App name goes between the fixed header fields and the records so the
	// fixed part can be read with one call.
	if _, err := bw.Write(hdr[:2]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(meta.App); err != nil {
		return nil, err
	}
	if _, err := bw.Write(hdr[2:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, ranks: meta.Ranks, left: nEvents}, nil
}

// Write appends one event record.
func (w *Writer) Write(e Event) error {
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if w.left == 0 {
		return fmt.Errorf("trace: more events than declared in header")
	}
	if err := e.Validate(w.ranks); err != nil {
		return err
	}
	// Validate leaves the peer of a collective and the root of an
	// unrooted op unchecked; they must still fit their int32 fields.
	if e.Peer != int(int32(e.Peer)) {
		return fmt.Errorf("trace: peer %d outside [%d, %d]", e.Peer, math.MinInt32, math.MaxInt32)
	}
	if e.Root != int(int32(e.Root)) {
		return fmt.Errorf("trace: root %d outside [%d, %d]", e.Root, math.MinInt32, math.MaxInt32)
	}
	rec := &w.rec
	binary.LittleEndian.PutUint32(rec[0:4], uint32(e.Rank))
	rec[4] = byte(e.Op)
	binary.LittleEndian.PutUint32(rec[5:9], uint32(int32(e.Peer)))
	binary.LittleEndian.PutUint32(rec[9:13], uint32(int32(e.Root)))
	binary.LittleEndian.PutUint64(rec[13:21], e.Bytes)
	binary.LittleEndian.PutUint32(rec[21:25], uint32(e.Comm))
	binary.LittleEndian.PutUint64(rec[25:33], e.Start)
	binary.LittleEndian.PutUint64(rec[33:41], e.End)
	if _, err := w.w.Write(rec[:]); err != nil {
		return err
	}
	w.left--
	return nil
}

// Close flushes the writer and verifies the declared event count was met.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.left != 0 {
		return fmt.Errorf("trace: %d declared events were not written", w.left)
	}
	return w.w.Flush()
}

// WriteTrace writes a fully materialized trace in binary form.
func WriteTrace(w io.Writer, t *Trace) error {
	tw, err := NewWriter(w, t.Meta, uint64(len(t.Events)))
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := tw.Write(e); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Reader streams events from a binary trace. It is a Source: Next reads
// up to readBatch events at a time into one reused batch.
type Reader struct {
	r    *bufio.Reader
	meta Meta
	left uint64
	// rec is the record Read decodes from; a local array would escape
	// through io.ReadFull and cost one allocation per event.
	rec   [recordSize]byte
	batch []Event
}

// readBatch is the number of events Reader.Next reads at a time.
const readBatch = 256

// NewReader parses the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", mapEOF(err))
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, binaryMagic)
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, mapEOF(err)
	}
	appLen := binary.LittleEndian.Uint16(lenBuf[:])
	app := make([]byte, appLen)
	if _, err := io.ReadFull(br, app); err != nil {
		return nil, mapEOF(err)
	}
	var rest [4 + 8 + 8]byte
	if _, err := io.ReadFull(br, rest[:]); err != nil {
		return nil, mapEOF(err)
	}
	meta := Meta{
		App:      string(app),
		Ranks:    int(binary.LittleEndian.Uint32(rest[0:4])),
		WallTime: math.Float64frombits(binary.LittleEndian.Uint64(rest[4:12])),
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return &Reader{
		r:    br,
		meta: meta,
		left: binary.LittleEndian.Uint64(rest[12:20]),
	}, nil
}

// Meta returns the trace metadata.
func (r *Reader) Meta() Meta { return r.meta }

// Remaining returns the number of events not yet read.
func (r *Reader) Remaining() uint64 { return r.left }

// Read returns the next event, or io.EOF after the last declared event.
func (r *Reader) Read() (Event, error) {
	if r.left == 0 {
		return Event{}, io.EOF
	}
	rec := &r.rec
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		return Event{}, mapEOF(err)
	}
	e := Event{
		Rank:  int(binary.LittleEndian.Uint32(rec[0:4])),
		Op:    Op(rec[4]),
		Peer:  int(int32(binary.LittleEndian.Uint32(rec[5:9]))),
		Root:  int(int32(binary.LittleEndian.Uint32(rec[9:13]))),
		Bytes: binary.LittleEndian.Uint64(rec[13:21]),
		Comm:  int32(binary.LittleEndian.Uint32(rec[21:25])),
		Start: binary.LittleEndian.Uint64(rec[25:33]),
		End:   binary.LittleEndian.Uint64(rec[33:41]),
	}
	if err := e.Validate(r.meta.Ranks); err != nil {
		return Event{}, err
	}
	r.left--
	return e, nil
}

// Next reads the next batch of up to readBatch events; see Source.
func (r *Reader) Next() ([]Event, error) {
	if r.batch == nil {
		r.batch = make([]Event, readBatch)
	}
	for n := range r.batch {
		e, err := r.Read()
		if err != nil {
			return r.batch[:n], err
		}
		r.batch[n] = e
	}
	return r.batch, nil
}

// ReadTrace reads a whole binary trace into memory.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return Collect(tr)
}

func mapEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// WriteText writes a trace in a human-readable line format:
//
//	#netloc-trace app=<name> ranks=<n> wall=<seconds>
//	<rank> <op> <peer> <root> <bytes> <comm> <start> <end>
//
// One line per event, space separated. Lines starting with '#' after the
// header are comments.
func WriteText(w io.Writer, t *Trace) error {
	if err := t.Meta.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "#netloc-trace app=%s ranks=%d wall=%g\n",
		sanitizeApp(t.Meta.App), t.Meta.Ranks, t.Meta.WallTime); err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := e.Validate(t.Meta.Ranks); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %d %d %d %d %d\n",
			e.Rank, e.Op, e.Peer, e.Root, e.Bytes, e.Comm, e.Start, e.End); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sanitizeApp(app string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, app)
}

// ReadText parses the text format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, ErrTruncated
	}
	header := sc.Text()
	meta, err := parseTextHeader(header)
	if err != nil {
		return nil, err
	}
	// Events is never nil, as from ReadTrace, so a trace reads back the
	// same from either codec.
	t := &Trace{Meta: meta, Events: []Event{}}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseTextEvent(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if err := e.Validate(meta.Ranks); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func parseTextHeader(line string) (Meta, error) {
	const prefix = "#netloc-trace "
	if !strings.HasPrefix(line, prefix) {
		return Meta{}, fmt.Errorf("trace: missing header, got %q", line)
	}
	var meta Meta
	seen := map[string]bool{}
	for _, field := range strings.Fields(line[len(prefix):]) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Meta{}, fmt.Errorf("trace: malformed header field %q", field)
		}
		seen[k] = true
		switch k {
		case "app":
			meta.App = v
		case "ranks":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Meta{}, fmt.Errorf("trace: bad ranks %q: %w", v, err)
			}
			meta.Ranks = n
		case "wall":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return Meta{}, fmt.Errorf("trace: bad wall %q: %w", v, err)
			}
			meta.WallTime = f
		default:
			return Meta{}, fmt.Errorf("trace: unknown header field %q", k)
		}
	}
	if !seen["ranks"] {
		return Meta{}, fmt.Errorf("trace: header missing ranks")
	}
	if err := meta.Validate(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

func parseTextEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return Event{}, fmt.Errorf("want 8 fields, got %d", len(fields))
	}
	var e Event
	var err error
	if e.Rank, err = strconv.Atoi(fields[0]); err != nil {
		return Event{}, fmt.Errorf("bad rank: %w", err)
	}
	if e.Op, err = ParseOp(fields[1]); err != nil {
		return Event{}, err
	}
	if e.Peer, err = strconv.Atoi(fields[2]); err != nil {
		return Event{}, fmt.Errorf("bad peer: %w", err)
	}
	if e.Root, err = strconv.Atoi(fields[3]); err != nil {
		return Event{}, fmt.Errorf("bad root: %w", err)
	}
	if e.Bytes, err = strconv.ParseUint(fields[4], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad bytes: %w", err)
	}
	comm, err := strconv.ParseInt(fields[5], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad comm: %w", err)
	}
	e.Comm = int32(comm)
	if e.Start, err = strconv.ParseUint(fields[6], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad start: %w", err)
	}
	if e.End, err = strconv.ParseUint(fields[7], 10, 64); err != nil {
		return Event{}, fmt.Errorf("bad end: %w", err)
	}
	return e, nil
}
