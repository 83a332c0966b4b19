package dumpi

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"netloc/internal/trace"
)

// readers wraps per-rank dump strings as io.Readers.
func readers(dumps ...string) []io.Reader {
	out := make([]io.Reader, len(dumps))
	for i, d := range dumps {
		out[i] = strings.NewReader(d)
	}
	return out
}

const sampleSend = `MPI_Send entering at walltime 100.000100, cputime 0.000100 seconds in thread 0.
int count=1024
datatype datatype=10 (MPI_DOUBLE)
int dest=3
int tag=7
comm comm=2 (MPI_COMM_WORLD)
MPI_Send returning at walltime 100.000200, cputime 0.000200 seconds in thread 0.
`

func TestParseRankSend(t *testing.T) {
	events, span, err := ParseRank(strings.NewReader(sampleSend), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.Op != trace.OpSend || e.Peer != 3 {
		t.Fatalf("event = %+v", e)
	}
	// 1024 doubles = 8192 bytes.
	if e.Bytes != 8192 {
		t.Fatalf("bytes = %d, want 8192", e.Bytes)
	}
	// Timestamps relative to the first call.
	if e.Start != 0 {
		t.Fatalf("start = %d", e.Start)
	}
	if e.End != 100_000 { // 100 microseconds
		t.Fatalf("end = %d", e.End)
	}
	if span < 0.0000999 || span > 0.0001001 {
		t.Fatalf("span = %v", span)
	}
}

func TestParseRankRecvAndRoot(t *testing.T) {
	in := `MPI_Recv entering at walltime 5.0, cputime 0.1 seconds in thread 0.
int count=10
datatype datatype=4 (MPI_INT)
int source=7
MPI_Recv returning at walltime 5.1, cputime 0.2 seconds in thread 0.
MPI_Bcast entering at walltime 6.0, cputime 0.3 seconds in thread 0.
int count=5
datatype datatype=10 (MPI_DOUBLE)
int root=2
MPI_Bcast returning at walltime 6.1, cputime 0.4 seconds in thread 0.
`
	events, _, err := ParseRank(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Op != trace.OpRecv || events[0].Peer != 7 || events[0].Bytes != 40 {
		t.Fatalf("recv = %+v", events[0])
	}
	if events[1].Op != trace.OpBcast || events[1].Root != 2 || events[1].Bytes != 40 {
		t.Fatalf("bcast = %+v", events[1])
	}
}

func TestParseRankVectorCounts(t *testing.T) {
	in := `MPI_Alltoallv entering at walltime 1.0, cputime 0.0 seconds in thread 0.
int sendcounts=[4](25, 25, 25, 25)
datatype sendtype=10 (MPI_DOUBLE)
int recvcounts=[4](99, 99, 99, 99)
datatype recvtype=10 (MPI_DOUBLE)
MPI_Alltoallv returning at walltime 1.5, cputime 0.0 seconds in thread 0.
`
	events, _, err := ParseRank(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	// Send side wins: 100 doubles = 800 bytes.
	if events[0].Op != trace.OpAlltoallv || events[0].Bytes != 800 {
		t.Fatalf("alltoallv = %+v", events[0])
	}
}

func TestParseRankDerivedDatatypeOneByte(t *testing.T) {
	in := `MPI_Send entering at walltime 1.0, cputime 0.0 seconds in thread 0.
int count=500
datatype datatype=17 (user-defined-struct)
int dest=1
MPI_Send returning at walltime 1.1, cputime 0.0 seconds in thread 0.
`
	events, _, err := ParseRank(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown datatype: one byte per element (the paper's convention).
	if events[0].Bytes != 500 {
		t.Fatalf("bytes = %d, want 500", events[0].Bytes)
	}
}

func TestParseRankSkipsUnknownCalls(t *testing.T) {
	in := `MPI_Init entering at walltime 0.5, cputime 0.0 seconds in thread 0.
MPI_Init returning at walltime 0.6, cputime 0.0 seconds in thread 0.
MPI_Wait entering at walltime 1.0, cputime 0.0 seconds in thread 0.
MPI_Wait returning at walltime 1.2, cputime 0.0 seconds in thread 0.
MPI_Barrier entering at walltime 2.0, cputime 0.0 seconds in thread 0.
comm comm=2 (MPI_COMM_WORLD)
MPI_Barrier returning at walltime 2.1, cputime 0.0 seconds in thread 0.
`
	events, _, err := ParseRank(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Op != trace.OpBarrier {
		t.Fatalf("events = %+v", events)
	}
}

func TestParseRankToleratesTruncation(t *testing.T) {
	// A record missing its return line is dropped, not an error.
	in := sampleSend + `MPI_Send entering at walltime 200.0, cputime 0.0 seconds in thread 0.
int count=10
`
	events, _, err := ParseRank(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}

func TestParseRankBadWalltime(t *testing.T) {
	in := "MPI_Send entering at walltime notanumber, cputime 0 seconds in thread 0.\n"
	if _, _, err := ParseRank(strings.NewReader(in), 0); err == nil {
		t.Fatal("bad walltime accepted")
	}
}

func TestLoadTraceAssemblesRanks(t *testing.T) {
	rank0 := `MPI_Send entering at walltime 10.0, cputime 0 seconds in thread 0.
int count=100
datatype datatype=4 (MPI_INT)
int dest=1
MPI_Send returning at walltime 10.5, cputime 0 seconds in thread 0.
`
	rank1 := `MPI_Recv entering at walltime 10.0, cputime 0 seconds in thread 0.
int count=100
datatype datatype=4 (MPI_INT)
int source=0
MPI_Recv returning at walltime 11.0, cputime 0 seconds in thread 0.
`
	tr2, err := LoadTrace("real-app", readers(rank0, rank1))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Meta.Ranks != 2 || tr2.Meta.App != "real-app" {
		t.Fatalf("meta = %+v", tr2.Meta)
	}
	if len(tr2.Events) != 2 {
		t.Fatalf("events = %d", len(tr2.Events))
	}
	// Wall time: the longest rank span (rank 1: 1.0 s).
	if tr2.Meta.WallTime != 1.0 {
		t.Fatalf("wall = %v", tr2.Meta.WallTime)
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTraceValidation(t *testing.T) {
	if _, err := LoadTrace("x", nil); err == nil {
		t.Fatal("empty stream list accepted")
	}
	// A send to an out-of-range peer fails trace validation.
	bad := `MPI_Send entering at walltime 1.0, cputime 0 seconds in thread 0.
int count=1
int dest=99
MPI_Send returning at walltime 1.1, cputime 0 seconds in thread 0.
`
	if _, err := LoadTrace("x", readers(bad)); err == nil {
		t.Fatal("out-of-range peer accepted")
	}
}

func TestParseRankSendrecv(t *testing.T) {
	in := `MPI_Sendrecv entering at walltime 3.0, cputime 0 seconds in thread 0.
int sendcount=100
datatype sendtype=4 (MPI_INT)
int dest=1
int sendtag=0
int recvcount=999
datatype recvtype=4 (MPI_INT)
int source=3
int recvtag=0
MPI_Sendrecv returning at walltime 3.2, cputime 0 seconds in thread 0.
`
	events, _, err := ParseRank(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	// The send half is recorded: sendcount x MPI_INT to dest, and the
	// recv side must not clobber it.
	if e.Op != trace.OpSend || e.Peer != 1 || e.Bytes != 400 {
		t.Fatalf("sendrecv = %+v", e)
	}
}

// nanDump stamps a send with NaN walltimes, which strconv.ParseFloat
// accepts: it used to load as an event at 2^63 ns in a trace of wall
// time 0.
const nanDump = `MPI_Send entering at walltime NaN, cputime 0.1 seconds in thread 0.
int count=8
datatype datatype=10 (MPI_DOUBLE)
int dest=1
MPI_Send returning at walltime NaN, cputime 0.2 seconds in thread 0.
`

// wrapDump sends 2^61 doubles, 2^64 bytes: it used to load as a 0-byte
// send.
const wrapDump = `MPI_Send entering at walltime 1.0, cputime 0.1 seconds in thread 0.
int count=2305843009213693952
datatype datatype=10 (MPI_DOUBLE)
int dest=1
MPI_Send returning at walltime 1.5, cputime 0.2 seconds in thread 0.
`

func TestParseRankRejectsWrappingValues(t *testing.T) {
	cases := map[string]struct{ dump, line string }{
		"NaN walltime":  {nanDump, "line 1:"},
		"+Inf walltime": {strings.Replace(sampleSend, "walltime 100.000200", "walltime +Inf", 1), "line 7:"},
		"byte product":  {wrapDump, "line 5:"},
		"vector sum": {`MPI_Alltoallv entering at walltime 1.0, cputime 0.0 seconds in thread 0.
int sendcounts=[2](9223372036854775807, 1)
datatype sendtype=1 (MPI_CHAR)
MPI_Alltoallv returning at walltime 1.5, cputime 0.0 seconds in thread 0.
`, "line 4:"},
		"nanosecond range": {strings.Replace(sampleSend, "walltime 100.000200", "walltime 1e300", 1), "line 7:"},
	}
	for name, c := range cases {
		_, _, err := ParseRank(strings.NewReader(c.dump), 0)
		if err == nil || !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: err = %v, want an error at %s", name, err, c.line)
		}
	}
}

// FuzzLoadTrace feeds arbitrary text to LoadTrace, one rank stream per
// form-feed-separated part. Whatever it accepts must validate, end every
// event within the trace's wall time, and survive a binary round trip
// unchanged. The committed seeds (testdata/fuzz/FuzzLoadTrace) are a
// two-rank exchange and nanDump and wrapDump, each followed by an empty
// second rank.
func FuzzLoadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := strings.Split(string(data), "\f")
		if len(parts) > 64 {
			return
		}
		tr, err := LoadTrace("fuzz", readers(parts...))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("loaded an invalid trace: %v", err)
		}
		for i, e := range tr.Events {
			if float64(e.End) > tr.Meta.WallTime*1e9 {
				t.Fatalf("event %d ends at %d ns, past the %v s wall time", i, e.End, tr.Meta.WallTime)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("encoding a loaded trace: %v", err)
		}
		back, err := trace.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading the binary form: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("binary round trip changed the trace:\n%+v\nvs\n%+v", tr, back)
		}
	})
}
