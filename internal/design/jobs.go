package design

import (
	"context"
	"fmt"
	"sync"

	"netloc/internal/core"
)

// Job states. A job is terminal in every state but StateRunning.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// SearchFunc runs one design search; the Store's default is
// SearchContext. Services override it to wrap runs in tracer spans and
// metrics absorption.
type SearchFunc func(ctx context.Context, req Request, opts core.Options) (*Sheet, error)

// Job is one asynchronous design search. All exported access goes
// through Status and Wait; the run goroutine owns the internals.
type Job struct {
	ID string

	cancel context.CancelFunc
	doneCh chan struct{}

	mu          sync.Mutex
	state       string
	done, total int
	sheet       *Sheet
	err         error
	canceled    bool
}

// Status is the poll-friendly snapshot of a job: state, monotonic
// progress, and — once terminal — the sheet or error.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done and Total count evaluated vs enumerated candidate
	// configurations; Done only ever grows (clamped monotonic even
	// though progress callbacks arrive from concurrent workers).
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Sheet *Sheet `json:"sheet,omitempty"`
	Error string `json:"error,omitempty"`
}

// Status returns the current snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.ID, State: j.state, Done: j.done, Total: j.total, Sheet: j.sheet}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Wait blocks until the job reaches a terminal state.
func (j *Job) Wait() { <-j.doneCh }

// Cancel asks the running search to stop at the next candidate
// boundary. Terminal jobs are unaffected.
func (j *Job) Cancel() {
	j.mu.Lock()
	if j.state == StateRunning {
		j.canceled = true
	}
	j.mu.Unlock()
	j.cancel()
}

// progress is the Request.Progress hook: workers report completion
// counts out of order, so only forward movement is recorded.
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	if done > j.done {
		j.done = done
	}
	j.total = total
	j.mu.Unlock()
}

func (j *Job) finish(sheet *Sheet, err error) {
	j.mu.Lock()
	switch {
	case j.canceled:
		j.state = StateCanceled
		if err == nil {
			err = context.Canceled
		}
		j.err = err
	case err != nil:
		j.state = StateFailed
		j.err = err
	default:
		j.state = StateDone
		j.sheet = sheet
		j.done = j.total
	}
	j.mu.Unlock()
	close(j.doneCh)
}

// Store owns a bounded set of design jobs. At most capacity jobs are
// retained; submitting past the bound evicts the oldest terminal job,
// and fails when every retained job is still running (backpressure
// instead of unbounded goroutine growth).
type Store struct {
	// Search runs each submitted job; defaults to SearchContext.
	Search SearchFunc

	capacity int

	mu        sync.Mutex
	seq       int
	jobs      map[string]*Job
	order     []string // submission order, for eviction
	submitted int
	completed int
}

// DefaultJobCapacity bounds the job store when the configuration
// doesn't say otherwise.
const DefaultJobCapacity = 32

// NewStore returns a job store retaining at most capacity jobs
// (DefaultJobCapacity when <= 0).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultJobCapacity
	}
	return &Store{Search: SearchContext, capacity: capacity, jobs: map[string]*Job{}}
}

// Submit validates the request (rank caps included), reserves a slot,
// and starts the search in a background goroutine. The returned job is
// already registered and pollable.
func (s *Store) Submit(req Request, opts core.Options) (*Job, error) {
	req, err := req.prepare(opts)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if len(s.jobs) >= s.capacity && !s.evictLocked() {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("design: job store full (%d jobs running)", s.capacity)
	}
	s.seq++
	s.submitted++
	job := &Job{
		ID:     fmt.Sprintf("design-%d", s.seq),
		cancel: cancel,
		doneCh: make(chan struct{}),
		state:  StateRunning,
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	search := s.Search
	s.mu.Unlock()

	req.Progress = job.progress
	go func() {
		sheet, err := search(ctx, req, opts)
		cancel()
		job.finish(sheet, err)
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
	}()
	return job, nil
}

// evictLocked drops the oldest terminal job; reports false when every
// retained job is still running.
func (s *Store) evictLocked() bool {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state != StateRunning
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns a retained job by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns the status of every retained job in submission order.
func (s *Store) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// StoreStats is the gauge snapshot the service exports.
type StoreStats struct {
	Retained  int // jobs currently held (any state)
	Running   int // jobs still searching
	Submitted int // accepted since process start
	Completed int // reached a terminal state since process start
}

// Stats returns current store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Retained: len(s.jobs), Submitted: s.submitted, Completed: s.completed}
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning {
			st.Running++
		}
		j.mu.Unlock()
	}
	return st
}
