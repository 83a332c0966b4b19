package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestBinaryReaderSurvivesCorruption flips random bytes in valid trace
// streams and checks the reader either returns an error or a trace whose
// events all validate — it must never panic or return invalid events.
func TestBinaryReaderSurvivesCorruption(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 500; trial++ {
		corrupted := append([]byte(nil), clean...)
		flips := 1 + rng.Intn(4)
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(corrupted))
			corrupted[pos] ^= byte(1 + rng.Intn(255))
		}
		tr, err := ReadTrace(bytes.NewReader(corrupted))
		if err != nil {
			continue // rejected: fine
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: reader returned invalid trace: %v", trial, err)
		}
	}
}

// TestBinaryReaderSurvivesTruncationEverywhere truncates a valid stream at
// every byte offset: all prefixes must be rejected or parse to a valid
// trace (a prefix that happens to contain fewer declared events cannot
// occur because the count is in the header, so errors are expected).
func TestBinaryReaderSurvivesTruncationEverywhere(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for n := 0; n < len(clean); n++ {
		if _, err := ReadTrace(bytes.NewReader(clean[:n])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", n, len(clean))
		}
	}
	if _, err := ReadTrace(bytes.NewReader(clean)); err != nil {
		t.Fatalf("full stream rejected: %v", err)
	}
}

// TestTextReaderSurvivesRandomJunk feeds random printable junk to the text
// parser: it must error out, never panic.
func TestTextReaderSurvivesRandomJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("abcdefgh0123456789 .-#\n=")
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = alphabet[rng.Intn(len(alphabet))]
		}
		tr, err := ReadText(bytes.NewReader(junk))
		if err == nil {
			// Only acceptable if it parsed into a valid trace (e.g. the
			// junk happened to start with a valid header).
			if vErr := tr.Validate(); vErr != nil {
				t.Fatalf("trial %d: junk parsed to invalid trace: %v", trial, vErr)
			}
		}
	}
}

// TestHeaderLengthFieldAbuse checks hostile header length fields don't
// cause huge allocations or panics.
func TestHeaderLengthFieldAbuse(t *testing.T) {
	// Magic + absurd app length with nothing after it.
	data := append([]byte(binaryMagic), 0xFF, 0xFF)
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated huge app name accepted")
	}
	// Valid-ish header declaring 2^63 events but carrying none.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: "x", Ranks: 2, WallTime: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The event-count field is the last 8 bytes of the header.
	for i := len(raw) - 8; i < len(raw); i++ {
		raw[i] = 0xFF
	}
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("huge declared event count with empty body accepted")
	}
}

// hostileHeader is a complete 26-byte header (empty app name, 2 ranks,
// 1 s) that declares 2^24-1 events and carries none of them.
func hostileHeader() []byte {
	b := append([]byte(binaryMagic), 0, 0) // app name length 0
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	return binary.LittleEndian.AppendUint64(b, 1<<24-1)
}

// The reader must fail on the missing records without first making room
// for the declared ones: 2^24 64-byte events would be 1 GiB, from an
// upload well under the service's body cap.
func TestReadTraceBoundsPreallocation(t *testing.T) {
	data := hostileHeader()
	if len(data) != 26 {
		t.Fatalf("header is %d bytes, want 26", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<20 {
		t.Fatalf("reading a %d-byte body allocated %d MiB", len(data), got>>20)
	}
}

// FuzzReadTrace feeds arbitrary bytes to the binary reader. The input
// must be rejected or decode to a trace that validates and survives a
// write/read round trip; the reader must never panic. The committed
// seeds (testdata/fuzz/FuzzReadTrace) are hostileHeader and the encoded
// sampleTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("reader returned an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%+v\nvs\n%+v", tr, back)
		}
	})
}

// FuzzReadText feeds arbitrary text to the text reader. Whatever it
// accepts must either be refused by the binary writer or survive a
// binary round trip unchanged: the writer may not narrow a field the
// text format holds wider. The committed seeds
// (testdata/fuzz/FuzzReadText) are the sample trace as text, a header
// declaring 2^32+2 ranks whose binary form read back as a 2-rank trace
// with rank 4294967297 turned into rank 1, and a collective whose peer
// does not fit int32.
func FuzzReadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("text reader returned an invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			return // refused, not narrowed
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading the binary form: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("binary round trip changed the trace:\n%+v\nvs\n%+v", tr, back)
		}
	})
}
