package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"meshplace/internal/localsearch"
)

func waitStatus(t *testing.T, q *jobQueue, id string, want JobStatus) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		view, ok := q.get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if view.Status == want {
			return view
		}
		if view.Status == JobDone || view.Status == JobFailed {
			t.Fatalf("job %s settled at %s waiting for %s (err %q)", id, view.Status, want, view.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestJobLifecycleSuccess(t *testing.T) {
	q := newJobQueue(0, "")
	defer q.wait()

	spec, err := ParseSpec("adhoc")
	if err != nil {
		t.Fatal(err)
	}
	view, err := q.submit(spec, 42, func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
		return []byte(`{"ok":true}`), RequestMetrics{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || (view.Status != JobQueued && view.Status != JobRunning && view.Status != JobDone) {
		t.Fatalf("initial view = %+v", view)
	}
	if view.Seed != 42 || view.Solver.Kind() != "adhoc" {
		t.Errorf("job metadata = %+v", view)
	}

	done := waitStatus(t, q, view.ID, JobDone)
	if string(done.Result) != `{"ok":true}` {
		t.Errorf("result = %s", done.Result)
	}
	if done.Error != "" {
		t.Errorf("done job has error %q", done.Error)
	}
}

func TestJobLifecycleFailure(t *testing.T) {
	q := newJobQueue(0, "")
	defer q.wait()

	spec, _ := ParseSpec("adhoc")
	view, err := q.submit(spec, 1, func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
		return nil, RequestMetrics{}, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitStatus(t, q, view.ID, JobFailed)
	if failed.Error != "boom" {
		t.Errorf("failure message = %q", failed.Error)
	}
	if len(failed.Result) != 0 {
		t.Errorf("failed job carries a result: %s", failed.Result)
	}
}

// TestJobSubmitAfterPoolClose pins shutdown behaviour: once Close has
// closed the server's worker pool, an async job that misses the cache
// fails with "server closed" and a synchronous miss answers 503.
func TestJobSubmitAfterPoolClose(t *testing.T) {
	srv := New(Config{CacheSize: 4, Workers: 1})
	srv.Close()
	in := testInstance(t)

	w := do(t, srv, "POST", "/v1/solve", solveBodyMode(t, in, "adhoc", 1, "async"))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit after close = %d, want 202 (body %s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	view := pollJob(t, srv, accepted.Job.ID)
	if view.Status != JobFailed || view.Error != errServerClosed.Error() {
		t.Errorf("job after close = %s (%q), want failed with %q", view.Status, view.Error, errServerClosed)
	}

	w = do(t, srv, "POST", "/v1/solve", solveBodyMode(t, in, "adhoc", 2, "sync"))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("sync solve after close = %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	srv.jobs.wait()
}

func TestJobEvictionKeepsTableBounded(t *testing.T) {
	q := newJobQueue(0, "")
	defer q.wait()
	spec, _ := ParseSpec("adhoc")

	for i := 0; i < maxRetainedJobs+100; i++ {
		if _, err := q.submit(spec, uint64(i), func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
			return []byte("{}"), RequestMetrics{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	q.wait()
	// Eviction happens on submit (unfinished jobs are never dropped), so
	// the next submit after the backlog drains prunes the table.
	view, err := q.submit(spec, 0, func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
		return []byte("{}"), RequestMetrics{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, q, view.ID, JobDone)
	if n := q.len(); n > maxRetainedJobs {
		t.Errorf("job table holds %d entries, want ≤ %d", n, maxRetainedJobs)
	}
	// The newest job is always retained.
	if _, ok := q.get(view.ID); !ok {
		t.Error("newest job was evicted")
	}
	// Sequential IDs stay unique after eviction.
	if view.ID != fmt.Sprintf("job-%08d", maxRetainedJobs+101) {
		t.Errorf("last id = %s", view.ID)
	}
}

// TestEvictLockedSparesUnfinishedJobs drives evictLocked directly on a
// table far past maxRetainedJobs holding an interleaved mix of finished and
// still-queued/running jobs, and asserts the invariants the HTTP layer
// relies on: unfinished jobs are never evicted, eviction stops as soon as
// the table is back at capacity, and order stays consistent with jobs.
func TestEvictLockedSparesUnfinishedJobs(t *testing.T) {
	q := newJobQueue(0, "")
	defer q.wait()
	spec, _ := ParseSpec("adhoc")

	// Build the table by hand (no job runs): every 3rd job still queued,
	// every 7th running, the rest finished.
	total := maxRetainedJobs + 200
	unfinished := map[string]bool{}
	q.mu.Lock()
	for i := 0; i < total; i++ {
		q.seq++
		id := fmt.Sprintf("job-%08d", q.seq)
		j := &job{view: JobView{ID: id, Status: JobDone, Solver: spec, Seed: uint64(i)}, events: newProgressHub()}
		switch {
		case i%3 == 0:
			j.view.Status = JobQueued
			unfinished[id] = true
		case i%7 == 0:
			j.view.Status = JobRunning
			unfinished[id] = true
		case i%2 == 0:
			j.view.Status = JobFailed
		}
		q.jobs[id] = j
		q.order = append(q.order, id)
	}
	q.evictLocked()
	q.mu.Unlock()

	if n := q.len(); n > maxRetainedJobs {
		t.Errorf("table holds %d jobs after eviction, want ≤ %d", n, maxRetainedJobs)
	}
	// Every queued or running job survived.
	for id := range unfinished {
		view, ok := q.get(id)
		if !ok {
			t.Fatalf("unfinished job %s was evicted", id)
		}
		if view.Status != JobQueued && view.Status != JobRunning {
			t.Fatalf("job %s status %s, want queued/running", id, view.Status)
		}
	}
	// order and jobs describe the same set, without duplicates, preserving
	// insertion order.
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.order) != len(q.jobs) {
		t.Fatalf("order has %d entries, jobs has %d", len(q.order), len(q.jobs))
	}
	seen := map[string]bool{}
	prev := ""
	for _, id := range q.order {
		if seen[id] {
			t.Fatalf("order lists %s twice", id)
		}
		seen[id] = true
		if _, ok := q.jobs[id]; !ok {
			t.Fatalf("order lists %s but jobs does not hold it", id)
		}
		if id <= prev { // zero-padded sequential ids sort lexically
			t.Fatalf("order not ascending: %s after %s", id, prev)
		}
		prev = id
	}
	// Eviction is oldest-first: it stops once within capacity, so the
	// newest finished jobs are retained.
	newest := fmt.Sprintf("job-%08d", total)
	if _, ok := q.jobs[newest]; !ok {
		t.Error("newest job was evicted")
	}
}

func TestJobBacklogLimitRejectsThenRecovers(t *testing.T) {
	q := newJobQueue(2, "")
	defer q.wait()
	spec, _ := ParseSpec("adhoc")

	release := make(chan struct{})
	blocked := func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
		<-release
		return []byte("{}"), RequestMetrics{}, nil
	}
	first, err := q.submit(spec, 1, blocked)
	if err != nil {
		t.Fatal(err)
	}
	second, err := q.submit(spec, 2, blocked)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.submit(spec, 3, blocked); err == nil {
		t.Fatal("third submit accepted over a backlog of 2")
	}
	if q.pendingCount() != 2 {
		t.Errorf("pending = %d, want 2", q.pendingCount())
	}

	close(release)
	waitStatus(t, q, first.ID, JobDone)
	waitStatus(t, q, second.ID, JobDone)
	// The backlog drains (pending slots free before finish is published,
	// so no extra wait is needed once both jobs report done).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.submit(spec, 4, func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
			return []byte("{}"), RequestMetrics{}, nil
		}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backlog never drained")
		}
		time.Sleep(time.Millisecond)
	}
}
