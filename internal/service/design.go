package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/obs"
	"netloc/internal/report"
	"netloc/internal/trace"
)

// designSearch is the job store's SearchFunc: each async job runs under
// one request-level budget token and a root span in the ring — the same
// accounting a synchronous computation gets — so /v1/debug/runs shows
// job searches next to everything else and their work counts feed the
// pipeline counters.
func (s *Server) designSearch(ctx context.Context, req design.Request, opts core.Options) (*design.Sheet, error) {
	ev := obs.RunEvent{Endpoint: "design_jobs", App: req.App, Ranks: req.Ranks, Cache: "none"}
	v, err := s.execute(req.CanonicalKey(), ev, func(sp *obs.Span) (any, error) {
		opts.Span = sp
		return design.SearchContext(ctx, req, opts)
	})
	sheet, _ := v.(*design.Sheet)
	return sheet, err
}

// decodeDesignRequest reads the JSON body of a design request and checks
// it as the search will (Validate, then the server's rank cap), so that a
// bad request answers 400 before admission: it takes no worker token and
// runs nothing. Unknown fields are rejected so typos in constraint names
// fail loudly instead of silently designing against defaults.
func (s *Server) decodeDesignRequest(w http.ResponseWriter, r *http.Request) (design.Request, error) {
	var req design.Request
	body := http.MaxBytesReader(w, r.Body, maxJSONBytes)
	defer body.Close()
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("service: bad design request body: %w", err)
	}
	if err := req.Validate(); err != nil {
		return req, err
	}
	if err := s.opts.Analysis.CheckRanks(req.Ranks); err != nil {
		return req, fmt.Errorf("design: %w", err)
	}
	return req, nil
}

// designStatus maps a design error to its HTTP status: client mistakes
// (validation, unknown apps/families, infeasible constraint sets) are
// 400s; anything else would be a pipeline bug and surfaces as a 500.
func designStatus(err error) int {
	if errors.Is(err, design.ErrNoCandidates) {
		return http.StatusBadRequest
	}
	msg := err.Error()
	if strings.HasPrefix(msg, "design:") || strings.Contains(msg, "workloads:") {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// handleDesign is the synchronous search: suitable for small candidate
// spaces, cached like every other canonical GET-shaped computation (the
// body is canonicalized into the cache key, so equivalent requests share
// one entry).
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeDesignRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := s.runOptions()
	b, err := s.cached(r, runDims{App: req.App, Ranks: req.Ranks}, req.CanonicalKey(), func(sp *obs.Span) (any, error) {
		o := opts
		o.Span = sp
		// The computation may be shared by identical in-flight requests
		// and its bytes cached, so it never runs under one client's
		// request context; cancellation is the job API's feature.
		return design.SearchContext(context.Background(), req, o)
	})
	if err != nil {
		writeError(w, designStatus(err), err)
		return
	}
	writeJSONBytes(w, b)
}

// handleDesignTrace designs against an uploaded binary .nlt trace. The
// workload is the body; the candidate space comes from query parameters
// (families, mappings as comma lists; radix, switches, links,
// candidates as integers; whops, wmakespan, wcost as weights). Uploads
// are not cached, but they run inside the worker pool like
// /v1/traces/analyze.
func (s *Server) handleDesignTrace(w http.ResponseWriter, r *http.Request) {
	req, err := designQueryRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	t, err := trace.ReadTrace(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad trace body: %w", err))
		return
	}
	req.Trace = t
	sheet, err := s.designSearch(r.Context(), req, s.runOptions())
	if err != nil {
		writeError(w, designStatus(err), err)
		return
	}
	writeJSON(w, sheet)
}

// designQueryRequest builds a design.Request from query parameters (the
// trace-upload surface, where the body is the workload).
func designQueryRequest(q url.Values) (design.Request, error) {
	var req design.Request
	if v := q.Get("families"); v != "" {
		req.Families = strings.Split(v, ",")
	}
	if v := q.Get("mappings"); v != "" {
		req.Mappings = strings.Split(v, ",")
	}
	var err error
	if req.Constraints.MaxRadix, err = queryNonNegInt(q, "radix", 0); err != nil {
		return req, err
	}
	if req.Constraints.MaxSwitches, err = queryNonNegInt(q, "switches", 0); err != nil {
		return req, err
	}
	if req.Constraints.MaxLinks, err = queryNonNegInt(q, "links", 0); err != nil {
		return req, err
	}
	if req.Constraints.MaxCandidates, err = queryNonNegInt(q, "candidates", 0); err != nil {
		return req, err
	}
	if req.Weights.Hops, err = queryFloat(q, "whops", 0); err != nil {
		return req, err
	}
	if req.Weights.Makespan, err = queryFloat(q, "wmakespan", 0); err != nil {
		return req, err
	}
	if req.Weights.Cost, err = queryFloat(q, "wcost", 0); err != nil {
		return req, err
	}
	return req, nil
}

func (s *Server) handleDesignJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeDesignRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.jobs.Submit(req, s.runOptions())
	if err != nil {
		status := designStatus(err)
		if strings.Contains(err.Error(), "job store full") {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, err)
		return
	}
	b, err := report.JSONBytes(job.Status())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/design/jobs/"+job.ID)
	w.WriteHeader(http.StatusAccepted)
	w.Write(b)
}

func (s *Server) handleDesignJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.jobs.List())
}

func (s *Server) designJob(w http.ResponseWriter, r *http.Request) (*design.Job, bool) {
	id := r.PathValue("id")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown design job %q", id))
		return nil, false
	}
	return job, true
}

func (s *Server) handleDesignJobGet(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.designJob(w, r); ok {
		writeJSON(w, job.Status())
	}
}

func (s *Server) handleDesignJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.designJob(w, r)
	if !ok {
		return
	}
	job.Cancel()
	writeJSON(w, job.Status())
}
