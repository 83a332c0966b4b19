package design

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/parallel"
)

// TestJobLifecycle drives the happy path: submit, poll monotonic
// progress, wait, and read the terminal sheet.
func TestJobLifecycle(t *testing.T) {
	store := NewStore(4)
	job, err := store.Submit(smallRequest(), core.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := store.Get(job.ID); !ok || got != job {
		t.Fatalf("job %s not retrievable", job.ID)
	}

	// Poll until terminal, checking progress never moves backwards.
	last := -1
	deadline := time.After(30 * time.Second)
	for {
		st := job.Status()
		if st.Done < last {
			t.Fatalf("progress went backwards: %d after %d", st.Done, last)
		}
		last = st.Done
		if st.State != StateRunning {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job did not finish")
		case <-time.After(time.Millisecond):
		}
	}
	job.Wait()

	st := job.Status()
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Sheet == nil || len(st.Sheet.Rows) == 0 {
		t.Fatal("done job has no sheet")
	}
	if st.Total == 0 || st.Done != st.Total {
		t.Fatalf("terminal progress %d/%d not complete", st.Done, st.Total)
	}
	if stats := store.Stats(); stats.Running != 0 || stats.Completed != 1 || stats.Submitted != 1 {
		t.Fatalf("store stats %+v after one finished job", stats)
	}
}

// TestJobCancelFreesBudget cancels a search mid-flight and checks the
// shared budget drains back to zero tokens in use — workers release
// their admission on the way out.
func TestJobCancelFreesBudget(t *testing.T) {
	budget := parallel.NewBudget(4)
	store := NewStore(4)

	// Hold the search inside candidate evaluation until cancel lands.
	started := make(chan struct{})
	var once sync.Once
	store.Search = func(ctx context.Context, req Request, opts core.Options) (*Sheet, error) {
		prev := req.Progress
		req.Progress = func(done, total int) {
			once.Do(func() { close(started) })
			if prev != nil {
				prev(done, total)
			}
		}
		return SearchContext(ctx, req, opts)
	}

	req := smallRequest()
	req.Constraints.MaxCandidates = DefaultMaxCandidates // enough work to outlive the cancel
	job, err := store.Submit(req, core.Options{Parallelism: 4, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	job.Cancel()
	job.Wait()

	st := job.Status()
	if st.State != StateCanceled {
		t.Fatalf("job state = %s, want canceled", st.State)
	}
	if st.Sheet != nil {
		t.Fatal("canceled job returned a sheet")
	}
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Fatalf("canceled job error = %q", st.Error)
	}
	if inUse := budget.InUse(); inUse != 0 {
		t.Fatalf("budget still holds %d tokens after cancel", inUse)
	}
}

// TestJobCancelIsSticky: a search that finishes after cancel was
// requested still reports canceled, not done.
func TestJobCancelIsSticky(t *testing.T) {
	store := NewStore(2)
	release := make(chan struct{})
	store.Search = func(ctx context.Context, req Request, opts core.Options) (*Sheet, error) {
		<-release
		return &Sheet{Rows: []Row{{Name: "x"}}}, nil
	}
	job, err := store.Submit(smallRequest(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	job.Cancel()
	close(release)
	job.Wait()
	if st := job.Status(); st.State != StateCanceled || st.Sheet != nil {
		t.Fatalf("job after late finish = %+v, want canceled without sheet", st)
	}
}

// TestStoreBoundedEviction fills the store with terminal jobs, checks
// the oldest is evicted on overflow, and that a store full of running
// jobs rejects new submissions.
func TestStoreBoundedEviction(t *testing.T) {
	store := NewStore(2)
	fast := func(ctx context.Context, req Request, opts core.Options) (*Sheet, error) {
		return &Sheet{Rows: []Row{{Name: "x"}}}, nil
	}
	store.Search = fast

	a, err := store.Submit(smallRequest(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.Wait()
	b, err := store.Submit(smallRequest(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b.Wait()

	// Third submission evicts the oldest terminal job (a).
	c, err := store.Submit(smallRequest(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Wait()
	if _, ok := store.Get(a.ID); ok {
		t.Fatalf("oldest job %s not evicted", a.ID)
	}
	if _, ok := store.Get(b.ID); !ok {
		t.Fatal("newer terminal job evicted instead of oldest")
	}

	// A store full of running jobs pushes back.
	blocked := NewStore(1)
	release := make(chan struct{})
	blocked.Search = func(ctx context.Context, req Request, opts core.Options) (*Sheet, error) {
		<-release
		return &Sheet{}, nil
	}
	running, err := blocked.Submit(smallRequest(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blocked.Submit(smallRequest(), core.Options{}); err == nil || !strings.Contains(err.Error(), "job store full") {
		t.Fatalf("full store accepted a job: %v", err)
	}
	close(release)
	running.Wait()

	if list := store.List(); len(list) != 2 {
		t.Fatalf("store lists %d jobs, want 2", len(list))
	}
}

// TestStoreValidatesBeforeSpawn: an invalid request, or one above the
// options' rank cap, is rejected synchronously and never occupies a slot.
func TestStoreValidatesBeforeSpawn(t *testing.T) {
	store := NewStore(2)
	for _, tc := range []struct {
		req  Request
		opts core.Options
		want string
	}{
		{Request{App: "milc", Ranks: -1}, core.Options{}, "non-positive node count"},
		{Request{App: "milc", Ranks: 512}, core.Options{MaxRanks: 64}, "design: core: 512 ranks, outside [1, 64]"},
	} {
		_, err := store.Submit(tc.req, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Submit(%s/%d, MaxRanks %d): err = %v, want %q", tc.req.App, tc.req.Ranks, tc.opts.MaxRanks, err, tc.want)
		}
	}
	if stats := store.Stats(); stats.Submitted != 0 || stats.Retained != 0 {
		t.Fatalf("rejected request left store stats %+v", stats)
	}
}
