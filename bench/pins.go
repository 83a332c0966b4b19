package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// pins are the SHA-256 digests of a workload's outputs, recorded once
// from a reference tree into bench/testdata/<workload>.sha256 as
// "<hex>  <key>" lines. In record mode check stores digests instead of
// comparing them, and save writes the file.
type pins struct {
	path   string
	record bool

	mu   sync.Mutex
	want map[string]string
}

func loadPins(root, workload string, record bool) (*pins, error) {
	p := &pins{
		path:   filepath.Join(root, "bench", "testdata", workload+".sha256"),
		record: record,
		want:   map[string]string{},
	}
	if record {
		return p, nil
	}
	f, err := os.Open(p.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(digest) != 64 {
			return nil, fmt.Errorf("%s: malformed line %q", p.path, sc.Text())
		}
		p.want[key] = digest
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.want) == 0 {
		return nil, fmt.Errorf("%s: no digests", p.path)
	}
	return p, nil
}

// check compares the digest of one output with its pin.
func (p *pins) check(key string, body []byte) error {
	got := sha(body)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.record {
		if prev, ok := p.want[key]; ok && prev != got {
			return mismatch("%s: two different outputs while recording", key)
		}
		p.want[key] = got
		return nil
	}
	want, ok := p.want[key]
	if !ok {
		return mismatch("%s: no pinned digest", key)
	}
	if got != want {
		return mismatch("%s: sha256 %s, pinned %s", key, got, want)
	}
	return nil
}

func (p *pins) save() error {
	keys := make([]string, 0, len(p.want))
	for k := range p.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s  %s\n", p.want[k], k)
	}
	return os.WriteFile(p.path, []byte(b.String()), 0o644)
}
