package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"meshplace/internal/localsearch"
	"meshplace/internal/wmn"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	id    string
	data  string
}

// parseSSE splits an SSE stream into events. It understands exactly the
// framing writeSSE produces (event/id/data lines, blank-line terminated).
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur != (sseEvent{}) {
				out = append(out, cur)
				cur = sseEvent{}
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

// checkProgressStream asserts the shared stream contract: at least one
// progress event, phases strictly increasing, exactly one terminal done
// event carrying the finished job view, nothing after it.
func checkProgressStream(t *testing.T, evs []sseEvent, wantResult string) {
	t.Helper()
	if len(evs) < 2 {
		t.Fatalf("stream has %d events, want at least one progress plus done", len(evs))
	}
	lastPhase := 0
	for i, ev := range evs[:len(evs)-1] {
		if ev.event != "progress" {
			t.Fatalf("event %d is %q, want progress", i, ev.event)
		}
		var p ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress event %d: %v", i, err)
		}
		if p.Phase <= lastPhase {
			t.Fatalf("phase not increasing at event %d: %d after %d", i, p.Phase, lastPhase)
		}
		lastPhase = p.Phase
	}
	done := evs[len(evs)-1]
	if done.event != "done" {
		t.Fatalf("last event is %q, want done", done.event)
	}
	var view JobView
	if err := json.Unmarshal([]byte(done.data), &view); err != nil {
		t.Fatalf("done event: %v", err)
	}
	if view.Status != JobDone {
		t.Fatalf("done event status %s", view.Status)
	}
	if wantResult != "" && string(view.Result) != wantResult {
		t.Errorf("done event result differs from job view result")
	}
}

// TestProgressHubBoundedAndMonotonic drives the hub directly: the history
// never exceeds progressBuffer, a reader always observes strictly
// increasing phases, and out-of-order records are dropped.
func TestProgressHubBoundedAndMonotonic(t *testing.T) {
	h := newProgressHub()
	for phase := 1; phase <= 4*progressBuffer; phase++ {
		h.publish(localsearch.PhaseRecord{Phase: phase, Metrics: wmn.Metrics{Fitness: float64(phase)}})
		// Regressing and repeated phases must be ignored.
		h.publish(localsearch.PhaseRecord{Phase: phase, Metrics: wmn.Metrics{Fitness: -1}})
		h.publish(localsearch.PhaseRecord{Phase: phase - 1, Metrics: wmn.Metrics{Fitness: -1}})
	}
	evs, done, _ := h.since(0)
	if done {
		t.Fatal("hub done before finish")
	}
	if len(evs) != progressBuffer {
		t.Fatalf("retained %d events, want %d", len(evs), progressBuffer)
	}
	for i, ev := range evs {
		if ev.Fitness < 0 {
			t.Fatalf("out-of-order record survived at %d", i)
		}
		if i > 0 && ev.Phase <= evs[i-1].Phase {
			t.Fatalf("phases not increasing: %d after %d", ev.Phase, evs[i-1].Phase)
		}
	}
	if last := evs[len(evs)-1].Phase; last != 4*progressBuffer {
		t.Errorf("newest retained phase %d, want %d", last, 4*progressBuffer)
	}
	// A reader that already saw everything gets nothing new.
	if more, _, _ := h.since(evs[len(evs)-1].Seq); len(more) != 0 {
		t.Errorf("since(latest) returned %d events", len(more))
	}
}

// TestProgressHubSlowConsumerNeverBlocksProducer subscribes a consumer
// that never reads and floods the hub; publish must return for every
// record (the producer side of the solve is never blocked by a stalled
// SSE client).
func TestProgressHubSlowConsumerNeverBlocksProducer(t *testing.T) {
	h := newProgressHub()
	_, cancel := h.subscribe() // never read from
	defer cancel()

	finished := make(chan struct{})
	go func() {
		for phase := 1; phase <= 16*progressBuffer; phase++ {
			h.publish(localsearch.PhaseRecord{Phase: phase})
		}
		h.finish(JobView{Status: JobDone})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("producer blocked on a consumer that never reads")
	}
}

// TestProgressHubFinishIsIdempotent pins the terminal contract: the first
// finish wins, later finishes and publishes are dropped, and subscribers
// are woken.
func TestProgressHubFinishIsIdempotent(t *testing.T) {
	h := newProgressHub()
	notify, cancel := h.subscribe()
	defer cancel()
	h.publish(localsearch.PhaseRecord{Phase: 1})
	h.finish(JobView{ID: "first", Status: JobDone})
	h.finish(JobView{ID: "second", Status: JobFailed})
	h.publish(localsearch.PhaseRecord{Phase: 2})

	select {
	case <-notify:
	default:
		t.Fatal("finish did not wake the subscriber")
	}
	evs, done, final := h.since(0)
	if !done || final.ID != "first" {
		t.Fatalf("done=%v final=%+v, want done with the first view", done, final)
	}
	if len(evs) != 1 || evs[0].Phase != 1 {
		t.Fatalf("events after finish = %+v, want only phase 1", evs)
	}
}

// TestJobEventsReplayAfterCompletion covers the late subscriber: once the
// job is done, GET /v1/jobs/{id}/events replays the retained progress and
// the terminal view immediately, then closes.
func TestJobEventsReplayAfterCompletion(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 2})
	in := testInstance(t)

	body := solveBodyMode(t, in, "search:phases=20,neighbors=4", 5, "async")
	w := do(t, srv, "POST", "/v1/solve", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async solve = %d (%s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	id := accepted.Job.ID

	deadline := time.Now().Add(10 * time.Second)
	var view JobView
	for {
		vw := do(t, srv, "GET", "/v1/jobs/"+id, "")
		if err := json.Unmarshal(vw.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view.Status == JobDone || view.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %s", view.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if view.Status != JobDone {
		t.Fatalf("job failed: %s", view.Error)
	}

	ew := do(t, srv, "GET", "/v1/jobs/"+id+"/events", "")
	if ew.Code != http.StatusOK {
		t.Fatalf("events = %d (%s)", ew.Code, ew.Body.String())
	}
	if ct := ew.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	checkProgressStream(t, parseSSE(t, ew.Body.String()), string(view.Result))
}

// TestJobEventsStreamLive attaches over a real connection while the job
// runs and reads events as they arrive; the stream must deliver at least
// one progress event before the terminal one and then end cleanly (EOF).
func TestJobEventsStreamLive(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	in := testInstance(t)

	body := solveBodyMode(t, in, "search:phases=40,neighbors=8", 6, "async")
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	es, err := http.Get(ts.URL + "/v1/jobs/" + accepted.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	var raw strings.Builder
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() { // ends at EOF when the handler closes after "done"
		raw.WriteString(sc.Text())
		raw.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checkProgressStream(t, parseSSE(t, raw.String()), "")
}

// TestJobEventsStalledClientDoesNotBlockJob opens the SSE stream and never
// reads from it; the job must still run to completion (the hub decouples
// the solver from every consumer).
func TestJobEventsStalledClientDoesNotBlockJob(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	in := testInstance(t)

	body := solveBodyMode(t, in, "search:phases=30,neighbors=8", 7, "async")
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve = %d", resp.StatusCode)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	es, err := http.Get(ts.URL + "/v1/jobs/" + accepted.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close() // never read: the client stalls on purpose

	deadline := time.Now().Add(10 * time.Second)
	for {
		var view JobView
		jr, err := http.Get(ts.URL + "/v1/jobs/" + accepted.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		jr.Body.Close()
		if view.Status == JobDone {
			return
		}
		if view.Status == JobFailed {
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish while an SSE client stalled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobEventsUnknownJob404 covers the missing-job path.
func TestJobEventsUnknownJob404(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4})
	w := do(t, srv, "GET", "/v1/jobs/job-00000042/events", "")
	if w.Code != http.StatusNotFound {
		t.Errorf("events of unknown job = %d, want 404", w.Code)
	}
}

// TestEvictionFinishesHubs pins that eviction finishes the hub of every
// dropped job, so a still-attached stream terminates instead of hanging
// on a job nobody can complete.
func TestEvictionFinishesHubs(t *testing.T) {
	q := newJobQueue(0, "")
	spec, _ := ParseSpec("adhoc")
	var hubs []*progressHub
	q.mu.Lock()
	for i := 0; i < maxRetainedJobs+10; i++ {
		q.seq++
		id := fmt.Sprintf("job-%08d", q.seq)
		j := &job{view: JobView{ID: id, Status: JobDone, Solver: spec}, events: newProgressHub()}
		q.jobs[id] = j
		q.order = append(q.order, id)
		hubs = append(hubs, j.events)
	}
	q.evictLocked()
	q.mu.Unlock()

	finished := 0
	for _, h := range hubs {
		if _, done, _ := h.since(0); done {
			finished++
		}
	}
	if finished != 10 {
		t.Errorf("%d hubs finished by eviction, want 10", finished)
	}
}

// TestNodeIDPrefixesJobIDs pins the cluster identity contract: with a
// NodeID configured, job handles carry the "<node>-" prefix and resolve
// through the normal job endpoints.
func TestNodeIDPrefixesJobIDs(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 1, NodeID: "n0a1b2c3"})
	in := testInstance(t)
	body := solveBodyMode(t, in, "adhoc", 1, "async")
	w := do(t, srv, "POST", "/v1/solve", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async solve = %d", w.Code)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(accepted.Job.ID, "n0a1b2c3-job-") {
		t.Fatalf("job id %q lacks the node prefix", accepted.Job.ID)
	}
	if w := do(t, srv, "GET", "/v1/jobs/"+accepted.Job.ID, ""); w.Code != http.StatusOK {
		t.Errorf("GET prefixed job = %d", w.Code)
	}
}

// mapStore is an in-memory ResultStore for tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

func (s *mapStore) Put(key string, payload []byte) {
	s.mu.Lock()
	s.m[key] = payload
	s.mu.Unlock()
}

// TestStoreHitServesPersistedResult pins the durable-store contract: a
// payload computed by one server is served by a second server sharing the
// store — byte-identical, reported as a store hit, and promoted into the
// second server's LRU so the next request is a plain hit.
func TestStoreHitServesPersistedResult(t *testing.T) {
	store := newMapStore()
	in := testInstance(t)
	body := solveBody(t, in, "search:phases=10,neighbors=4", 11)

	a := newTestServer(t, Config{CacheSize: 4, Workers: 1, Store: store})
	first := do(t, a, "POST", "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("solve on A = %d (%s)", first.Code, first.Body.String())
	}
	if len(store.m) == 0 {
		t.Fatal("computed payload was not published to the store")
	}

	b := newTestServer(t, Config{CacheSize: 4, Workers: 1, Store: store})
	second := do(t, b, "POST", "/v1/solve", body)
	if second.Code != http.StatusOK {
		t.Fatalf("solve on B = %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != CacheStoreHit {
		t.Errorf("X-Cache on B = %q, want %q", got, CacheStoreHit)
	}
	var ra, rb SolveResponse
	if err := json.Unmarshal(first.Body.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if string(ra.Result) != string(rb.Result) {
		t.Error("store-served result differs from the computed one")
	}
	if m := b.Metrics(); m.StoreHits != 1 {
		t.Errorf("B StoreHits = %d, want 1", m.StoreHits)
	}
	// Promoted into B's LRU: the repeat is a plain cache hit.
	third := do(t, b, "POST", "/v1/solve", body)
	if got := third.Header().Get("X-Cache"); got != CacheHit {
		t.Errorf("X-Cache on repeat = %q, want %q", got, CacheHit)
	}
}
