package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"netloc/internal/congest"
	"netloc/internal/core"
	"netloc/internal/obs"
	"netloc/internal/workloads"
)

// CongestionWorkload names one (app, ranks) cell of a congestion request.
type CongestionWorkload struct {
	App   string `json:"app"`
	Ranks int    `json:"ranks"`
}

// CongestionRequest is the POST /v1/congestion body. Every field is
// optional: empty workloads run core.CongestionWorkloads, empty families
// run the paper's torus/fattree/dragonfly trio, empty policies run all
// of congest.Policies, zero growth_pct uses the default threshold, and a
// negative one disables the tolerance sweep.
type CongestionRequest struct {
	Workloads []CongestionWorkload `json:"workloads,omitempty"`
	Families  []string             `json:"families,omitempty"`
	Policies  []string             `json:"policies,omitempty"`
	GrowthPct float64              `json:"growth_pct,omitempty"`
	// MaxRanks caps the grid when positive. It can lower the server's
	// cap but not lift it.
	MaxRanks int `json:"max_ranks,omitempty"`
}

// canonicalize validates the request and fills defaults, so equivalent
// requests share one cache key and the response echoes what actually ran.
func (r *CongestionRequest) canonicalize() error {
	if len(r.Workloads) == 0 {
		for _, ref := range core.CongestionWorkloads {
			r.Workloads = append(r.Workloads, CongestionWorkload{App: ref.App, Ranks: ref.Ranks})
		}
	}
	for _, wl := range r.Workloads {
		if _, err := workloads.Lookup(wl.App); err != nil {
			return err
		}
		if wl.Ranks < 1 {
			return fmt.Errorf("service: workload %s ranks %d out of range (need >= 1)", wl.App, wl.Ranks)
		}
	}
	if len(r.Families) == 0 {
		r.Families = core.PaperKinds()
	}
	kinds := core.AnalysisKinds()
	for _, fam := range r.Families {
		if !slices.Contains(kinds, fam) {
			return fmt.Errorf("service: unknown topology family %q (known: %s)", fam, strings.Join(kinds, ", "))
		}
	}
	if len(r.Policies) == 0 {
		r.Policies = congest.Policies()
	}
	known := congest.Policies()
	for _, p := range r.Policies {
		if !slices.Contains(known, p) {
			return fmt.Errorf("service: unknown policy %q (known: %s)", p, strings.Join(known, ", "))
		}
	}
	switch {
	case r.GrowthPct == 0:
		r.GrowthPct = congest.DefaultGrowthPct
	case r.GrowthPct < 0:
		r.GrowthPct = -1 // any negative value means "sweep disabled"
	}
	if r.MaxRanks < 0 {
		return fmt.Errorf("service: max_ranks %d is negative", r.MaxRanks)
	}
	return nil
}

// cacheKey is the canonical result-cache key of one request.
func (r *CongestionRequest) cacheKey() string {
	var b strings.Builder
	b.WriteString("congestion?growth=")
	fmt.Fprintf(&b, "%g", r.GrowthPct)
	fmt.Fprintf(&b, "&maxranks=%d", r.MaxRanks)
	b.WriteString("&families=")
	b.WriteString(strings.Join(r.Families, ","))
	b.WriteString("&policies=")
	b.WriteString(strings.Join(r.Policies, ","))
	b.WriteString("&workloads=")
	names := make([]string, len(r.Workloads))
	for i, wl := range r.Workloads {
		names[i] = fmt.Sprintf("%s/%d", wl.App, wl.Ranks)
	}
	// Rows follow the requested workload and policy order, so order is
	// part of the result and stays in the key.
	b.WriteString(strings.Join(names, ","))
	return b.String()
}

// CongestionResult is the /v1/congestion response: the canonicalized
// request echoed back plus the grid rows in (workload, topology, policy)
// order.
type CongestionResult struct {
	Workloads []CongestionWorkload `json:"workloads"`
	Families  []string             `json:"families"`
	Policies  []string             `json:"policies"`
	GrowthPct float64              `json:"growth_pct"`
	Rows      []core.CongestionRow `json:"rows"`
}

// handleCongestion runs the temporal congestion study over a requested
// grid: cached and deduplicated in the result LRU under the canonical
// key, computed inside the worker pool under
// a span in the debug ring, with work counts feeding the netloc_congest_*
// counters.
func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request) {
	var req CongestionRequest
	body := http.MaxBytesReader(w, r.Body, maxJSONBytes)
	defer body.Close()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad congestion request body: %w", err))
		return
	}
	if err := req.canonicalize(); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "workloads:") {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	opts := s.runOptions()
	req.MaxRanks = capRanks(opts.MaxRanks, req.MaxRanks)
	opts.MaxRanks = req.MaxRanks
	refs := make([]core.WorkloadRef, len(req.Workloads))
	for i, wl := range req.Workloads {
		refs[i] = core.WorkloadRef{App: wl.App, Ranks: wl.Ranks}
	}
	b, err := s.cached(r, runDims{}, req.cacheKey(), func(sp *obs.Span) (any, error) {
		o := opts
		o.Span = sp
		rows, err := core.CongestionTable(refs, req.Families, req.Policies, req.GrowthPct, o)
		if err != nil {
			return nil, err
		}
		return &CongestionResult{
			Workloads: req.Workloads, Families: req.Families,
			Policies: req.Policies, GrowthPct: req.GrowthPct, Rows: rows,
		}, nil
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSONBytes(w, b)
}
