package main

import (
	"os"
	"path/filepath"
	"testing"

	"netloc/internal/core"
	"netloc/internal/harness"
	"netloc/internal/mpi"
	"netloc/internal/trace"
	"netloc/internal/workloads"
)

func TestRunExperiment(t *testing.T) {
	if err := run("", harness.Params{Experiment: "table2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("", harness.Params{Experiment: "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunTraceFile(t *testing.T) {
	app, err := workloads.Lookup("MiniFE")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := app.Generate(18)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.nlt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := run(path, harness.Params{Options: core.Options{}}); err != nil {
		t.Fatal(err)
	}
	if err := run(filepath.Join(dir, "missing.nlt"), harness.Params{}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]mpi.Strategy{
		"": mpi.StrategyDirect, "direct": mpi.StrategyDirect,
		"tree": mpi.StrategyTree, "ring": mpi.StrategyRing,
	} {
		got, err := mpi.ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := mpi.ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}
