package trace

import (
	"math"
	"strings"
	"testing"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpSend:          "send",
		OpRecv:          "recv",
		OpBcast:         "bcast",
		OpAllreduce:     "allreduce",
		OpAlltoallv:     "alltoallv",
		OpBarrier:       "barrier",
		OpReduceScatter: "reducescatter",
		OpInvalid:       "invalid",
		Op(200):         "op(200)",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	for op := OpSend; op < opSentinel; op++ {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Errorf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
}

func TestParseOpRejectsUnknown(t *testing.T) {
	for _, s := range []string{"", "invalid", "MPI_Send", "sendx"} {
		if _, err := ParseOp(s); err == nil {
			t.Errorf("ParseOp(%q) should fail", s)
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpSend.IsP2P() || !OpRecv.IsP2P() {
		t.Fatal("send/recv must be p2p")
	}
	if OpSend.IsCollective() {
		t.Fatal("send is not collective")
	}
	for _, op := range []Op{OpBcast, OpReduce, OpAllreduce, OpGather, OpScatter,
		OpAllgather, OpAlltoall, OpAlltoallv, OpBarrier, OpReduceScatter} {
		if !op.IsCollective() {
			t.Errorf("%v should be collective", op)
		}
		if op.IsP2P() {
			t.Errorf("%v should not be p2p", op)
		}
	}
	if OpInvalid.Valid() || Op(250).Valid() {
		t.Fatal("invalid ops must not be Valid")
	}
}

func TestEventValidate(t *testing.T) {
	valid := Event{Rank: 0, Op: OpSend, Peer: 1, Root: -1, Bytes: 10}
	if err := valid.Validate(4); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	cases := []struct {
		name string
		e    Event
	}{
		{"bad op", Event{Rank: 0, Op: OpInvalid, Peer: 1, Root: -1}},
		{"rank out of range", Event{Rank: 4, Op: OpSend, Peer: 1, Root: -1}},
		{"negative rank", Event{Rank: -1, Op: OpSend, Peer: 1, Root: -1}},
		{"peer out of range", Event{Rank: 0, Op: OpSend, Peer: 4, Root: -1}},
		{"self message", Event{Rank: 2, Op: OpSend, Peer: 2, Root: -1}},
		{"bcast bad root", Event{Rank: 0, Op: OpBcast, Peer: -1, Root: 9}},
		{"gather negative root", Event{Rank: 0, Op: OpGather, Peer: -1, Root: -1}},
		{"end before start", Event{Rank: 0, Op: OpSend, Peer: 1, Root: -1, Start: 5, End: 3}},
	}
	for _, c := range cases {
		if err := c.e.Validate(4); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEventValidateCollectiveNoRoot(t *testing.T) {
	// Non-rooted collectives don't need a valid root.
	e := Event{Rank: 1, Op: OpAllreduce, Peer: -1, Root: -1, Bytes: 8}
	if err := e.Validate(4); err != nil {
		t.Fatalf("allreduce with root -1 rejected: %v", err)
	}
}

func TestMetaValidate(t *testing.T) {
	if err := (Meta{App: "x", Ranks: 1}).Validate(); err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}
	if err := (Meta{Ranks: 0}).Validate(); err == nil {
		t.Fatal("zero ranks should fail")
	}
	if err := (Meta{Ranks: 2, WallTime: -1}).Validate(); err == nil {
		t.Fatal("negative wall time should fail")
	}
	for _, wall := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := (Meta{Ranks: 2, WallTime: wall}).Validate()
		if err == nil || !strings.Contains(err.Error(), "need finite") {
			t.Errorf("wall time %v: err = %v, want a non-finite rejection", wall, err)
		}
	}
}

func TestTraceValidateFlagsBadEvent(t *testing.T) {
	tr := &Trace{
		Meta: Meta{App: "t", Ranks: 2, WallTime: 1},
		Events: []Event{
			{Rank: 0, Op: OpSend, Peer: 1, Root: -1, Bytes: 1},
			{Rank: 0, Op: OpSend, Peer: 5, Root: -1, Bytes: 1},
		},
	}
	err := tr.Validate()
	if err == nil || !strings.Contains(err.Error(), "event 1") {
		t.Fatalf("want event-1 error, got %v", err)
	}
}

func TestTotalBytes(t *testing.T) {
	tr := &Trace{
		Meta: Meta{App: "t", Ranks: 4, WallTime: 1},
		Events: []Event{
			{Rank: 0, Op: OpSend, Peer: 1, Root: -1, Bytes: 100},
			{Rank: 1, Op: OpRecv, Peer: 0, Root: -1, Bytes: 100}, // recv not counted
			{Rank: 2, Op: OpAllreduce, Peer: -1, Root: -1, Bytes: 30},
			{Rank: 3, Op: OpBarrier, Peer: -1, Root: -1, Bytes: 0},
		},
	}
	p2p, coll := tr.TotalBytes()
	if p2p != 100 {
		t.Errorf("p2p = %d, want 100", p2p)
	}
	if coll != 30 {
		t.Errorf("coll = %d, want 30", coll)
	}
}
