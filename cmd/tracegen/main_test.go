package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"netloc/internal/trace"
	"netloc/internal/workloads"
)

func TestRunList(t *testing.T) {
	if err := run("", 0, "", false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunRequiresAppAndRanks(t *testing.T) {
	if err := run("", 0, "", false, false); err == nil {
		t.Fatal("missing args accepted")
	}
	if err := run("LULESH", 0, "", false, false); err == nil {
		t.Fatal("missing ranks accepted")
	}
}

func TestRunUnknownApp(t *testing.T) {
	if err := run("NoSuchApp", 8, "", false, false); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunUnknownScale(t *testing.T) {
	if err := run("LULESH", 7, "", false, false); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestRunWritesBinaryTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "l.nlt")
	if err := run("LULESH", 64, out, false, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.App != "LULESH" || tr.Meta.Ranks != 64 {
		t.Fatalf("meta = %+v", tr.Meta)
	}
}

func TestRunWritesTextTrace(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "m.txt")
	if err := run("MiniFE", 18, out, true, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Ranks != 18 {
		t.Fatalf("meta = %+v", tr.Meta)
	}
}

func TestRunBadOutputPath(t *testing.T) {
	if err := run("LULESH", 64, "/nonexistent-dir/x.nlt", false, false); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

// tracegen writes the generated stream batch by batch, never the whole
// trace at once; both formats hold the same bytes as the materialized
// trace written whole.
func TestRunStreamsGeneratedTraceBytes(t *testing.T) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, format := range []struct {
		name  string
		text  bool
		write func(io.Writer, *trace.Trace) error
	}{
		{"binary", false, trace.WriteTrace},
		{"text", true, trace.WriteText},
	} {
		var want bytes.Buffer
		if err := format.write(&want, tr); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, format.name)
		if err := run("LULESH", 64, out, format.text, false); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: tracegen wrote %d bytes that differ from the %d of the whole trace", format.name, len(got), want.Len())
		}
	}
}
