package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPinsRoundTrip(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "bench", "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec, err := loadPins(root, "w", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.check("a key", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := rec.check("a key", []byte("two")); err == nil {
		t.Error("recording two outputs for one key must fail")
	}
	if err := rec.save(); err != nil {
		t.Fatal(err)
	}
	p, err := loadPins(root, "w", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check("a key", []byte("one")); err != nil {
		t.Errorf("pinned output refused: %v", err)
	}
	if err := p.check("a key", []byte("two")); err == nil {
		t.Error("changed output passed its pin")
	}
	if err := p.check("other", []byte("one")); err == nil {
		t.Error("output without a pin passed")
	}
}
