package server

import (
	"encoding/json"
	"fmt"
	"sync"

	"meshplace/internal/localsearch"
)

// JobStatus enumerates the lifecycle of an async solve.
type JobStatus string

// Job lifecycle states, in order.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobView is the JSON representation of a job returned by POST /v1/solve
// (async) and GET /v1/jobs/{id}. Result carries the exact payload a
// synchronous solve of the same request would return, byte for byte;
// RequestMetrics carries the finished request's telemetry (queue wait
// including worker-pool queueing, batch build, solve, cache path).
type JobView struct {
	ID             string          `json:"id"`
	Status         JobStatus       `json:"status"`
	Solver         Spec            `json:"solver"`
	Seed           uint64          `json:"seed"`
	Result         json.RawMessage `json:"result,omitempty"`
	RequestMetrics *RequestMetrics `json:"requestMetrics,omitempty"`
	Error          string          `json:"error,omitempty"`
}

type job struct {
	mu   sync.Mutex
	view JobView
	// events fans the job's live solver progress to SSE subscribers; it is
	// created with the job and receives the terminal view on finish.
	events *progressHub
}

func (j *job) snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

func (j *job) setStatus(s JobStatus) {
	j.mu.Lock()
	j.view.Status = s
	j.mu.Unlock()
}

func (j *job) finish(result []byte, metrics RequestMetrics, err error) {
	j.mu.Lock()
	if err != nil {
		j.view.Status = JobFailed
		j.view.Error = err.Error()
	} else {
		j.view.Status = JobDone
		j.view.Result = result
		j.view.RequestMetrics = &metrics
	}
	view := j.view
	j.mu.Unlock()
	// Publish the terminal view after releasing j.mu — the hub has its own
	// lock and SSE subscribers read through it, never through the job.
	j.events.finish(view)
}

// maxRetainedJobs bounds the job table: once exceeded, the oldest finished
// jobs are forgotten (their results usually live on in the cache anyway).
const maxRetainedJobs = 1024

// errBacklogFull rejects async submissions once the pending backlog is at
// capacity — the server's backpressure signal (429).
var errBacklogFull = fmt.Errorf("server: async backlog full, retry later")

// jobQueue tracks async solves. Each accepted job runs on its own
// goroutine, which waits for its solve outside the server's worker pool
// exactly as a synchronous handler does; the pool bounds the solving, and
// maxPending bounds how many job goroutines can exist (each pending job
// also pins its instance). Beyond it, submit rejects with errBacklogFull.
type jobQueue struct {
	mu         sync.Mutex
	jobs       map[string]*job
	order      []string // insertion order, for eviction
	seq        uint64
	pending    int
	maxPending int    // <= 0 means unbounded
	prefix     string // "<nodeID>-" when the server has a cluster identity
	running    sync.WaitGroup
}

func newJobQueue(maxPending int, nodeID string) *jobQueue {
	prefix := ""
	if nodeID != "" {
		prefix = nodeID + "-"
	}
	return &jobQueue{jobs: make(map[string]*job), maxPending: maxPending, prefix: prefix}
}

// submit registers a job and starts its run, returning the initial
// (queued) view, or errBacklogFull when the pending backlog is at
// capacity. IDs are sequential, not random, so job handles are
// deterministic within a server lifetime; under a cluster identity they
// are prefixed "<nodeID>-", which is how any replica routes
// GET /v1/jobs/{id} back to the replica that owns the job. run receives a
// publish hook that fans the solver's live PhaseRecords to the job's SSE
// subscribers.
func (q *jobQueue) submit(spec Spec, seed uint64, run func(publish func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error)) (JobView, error) {
	q.mu.Lock()
	if q.maxPending > 0 && q.pending >= q.maxPending {
		q.mu.Unlock()
		return JobView{}, errBacklogFull
	}
	q.pending++
	q.seq++
	id := fmt.Sprintf("%sjob-%08d", q.prefix, q.seq)
	j := &job{view: JobView{ID: id, Status: JobQueued, Solver: spec, Seed: seed}, events: newProgressHub()}
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.evictLocked()
	q.running.Add(1)
	q.mu.Unlock()

	view := j.snapshot()
	go func() {
		defer q.running.Done()
		j.setStatus(JobRunning)
		out, metrics, err := run(j.events.publish)
		q.release()
		j.finish(out, metrics, err)
	}()
	return view, nil
}

// wait blocks until every job started so far has finished.
func (q *jobQueue) wait() { q.running.Wait() }

// release frees one pending slot.
func (q *jobQueue) release() {
	q.mu.Lock()
	q.pending--
	q.mu.Unlock()
}

// pendingCount returns the queued + running backlog.
func (q *jobQueue) pendingCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

// get returns the current view of a job.
func (q *jobQueue) get(id string) (JobView, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.snapshot(), true
}

// hub returns the progress hub of a job, for SSE subscription.
func (q *jobQueue) hub(id string) (*progressHub, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.events, true
}

// len returns the number of retained jobs.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// evictLocked drops the oldest finished jobs beyond maxRetainedJobs. An
// evicted job's hub is finished with its terminal view (idempotent), so
// any SSE stream still attached delivers its terminal event and closes
// instead of hanging on a job nobody can complete. Requires q.mu held.
func (q *jobQueue) evictLocked() {
	if len(q.jobs) <= maxRetainedJobs {
		return
	}
	kept := q.order[:0]
	for _, id := range q.order {
		if len(q.jobs) <= maxRetainedJobs {
			kept = append(kept, id)
			continue
		}
		j := q.jobs[id]
		switch j.snapshot().Status {
		case JobDone, JobFailed:
			j.events.finish(j.snapshot())
			delete(q.jobs, id)
		default:
			kept = append(kept, id)
		}
	}
	q.order = append([]string(nil), kept...)
}
