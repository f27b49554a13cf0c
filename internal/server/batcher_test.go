package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"meshplace/internal/wmn"
)

// solveBodyMode is solveBody with an explicit execution mode.
func solveBodyMode(t *testing.T, in *wmn.Instance, solver string, seed uint64, mode string) string {
	t.Helper()
	payload, err := json.Marshal(map[string]any{
		"solver":   solver,
		"seed":     seed,
		"instance": in,
		"mode":     mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// fireConcurrent launches one goroutine per body, waits for all responses,
// and returns the recorders in body order.
func fireConcurrent(t *testing.T, srv *Server, bodies []string) []*httptest.ResponseRecorder {
	t.Helper()
	out := make([]*httptest.ResponseRecorder, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			out[i] = w
		}(i, body)
	}
	wg.Wait()
	return out
}

// workerHold occupies every worker of a server's pool with a task blocked
// on gate, so batches queue (and coalesce) until the test frees a worker.
type workerHold struct {
	gate chan struct{}
	once sync.Once
}

// holdWorkers submits one gate task per pool worker and returns once every
// worker is running one. The hold is released at cleanup at the latest,
// before the server closes.
func holdWorkers(t *testing.T, srv *Server) *workerHold {
	t.Helper()
	h := &workerHold{gate: make(chan struct{})}
	var running sync.WaitGroup
	running.Add(srv.pool.workers)
	for range srv.pool.workers {
		if !srv.pool.submit(func() { running.Done(); <-h.gate }) {
			t.Fatal("pool closed")
		}
	}
	running.Wait()
	t.Cleanup(h.releaseAll)
	return h
}

// releaseOne frees exactly one held worker.
func (h *workerHold) releaseOne() { h.gate <- struct{}{} }

// releaseAll frees every held worker.
func (h *workerHold) releaseAll() { h.once.Do(func() { close(h.gate) }) }

// queuedRequests counts the requests coalesced into batches that have not
// started yet, open or full.
func queuedRequests(srv *Server) int {
	b := srv.batch
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := map[*batch]bool{}
	n := 0
	for _, c := range b.inflight {
		if bt := c.pendingIn; bt != nil && !seen[bt] {
			seen[bt] = true
			n += bt.requests
		}
	}
	return n
}

// waitQueuedRequests polls the batcher until its queued batches have
// coalesced want requests (the deterministic "everyone has attached" gate
// the coalescing tests synchronize on while every worker is held).
func waitQueuedRequests(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queuedRequests(srv) < want {
		if time.Now().After(deadline) {
			t.Fatalf("queued batches never coalesced %d requests (have %d)", want, queuedRequests(srv))
		}
		time.Sleep(time.Millisecond)
	}
}

// fireCoalesced is fireConcurrent with every pool worker held until the
// batcher has queued want requests, so the burst coalesces deterministically
// however fast a solve is.
func fireCoalesced(t *testing.T, srv *Server, bodies []string, want int) []*httptest.ResponseRecorder {
	t.Helper()
	hold := holdWorkers(t, srv)
	done := make(chan []*httptest.ResponseRecorder)
	go func() { done <- fireConcurrent(t, srv, bodies) }()
	waitQueuedRequests(t, srv, want)
	hold.releaseAll()
	return <-done
}

// TestBatcherDedupExactlyOneComputation is the acceptance stress test: 64
// concurrent identical (instance, spec, seed) requests with the cache
// disabled must run exactly one solver computation, fanned byte-identically
// to every waiter. Every worker is held until all 64 requests have
// attached, and the disabled cache proves delivery flows through the
// computation fan-out, not the LRU.
func TestBatcherDedupExactlyOneComputation(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 64, Workers: 4})
	in := testInstance(t)
	body := solveBody(t, in, "search:phases=4,neighbors=4", 7)

	const n = 64
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = body
	}
	recs := fireCoalesced(t, srv, bodies, n)

	var miss, dedup int
	first := resultBytes(t, recs[0].Body.Bytes())
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d (body %s)", i, w.Code, w.Body.String())
		}
		raw, m := decodeEnvelope(t, w.Body.Bytes())
		if !bytes.Equal(first, raw) {
			t.Fatalf("request %d result differs from request 0", i)
		}
		switch m.CachePath {
		case CacheMiss:
			miss++
		case CacheDedupWait:
			dedup++
		default:
			t.Fatalf("request %d cache path %q", i, m.CachePath)
		}
		if m.BatchSize != 1 {
			t.Errorf("request %d batch size %d, want 1 distinct computation", i, m.BatchSize)
		}
		if m.TotalNs <= 0 || m.SolveNs <= 0 {
			t.Errorf("request %d metrics unpopulated: %+v", i, m)
		}
	}
	if miss != 1 || dedup != n-1 {
		t.Errorf("cache paths = %d miss / %d dedup-wait, want 1 / %d", miss, dedup, n-1)
	}

	snap := srv.Metrics()
	if snap.Computations != 1 {
		t.Errorf("computations = %d, want exactly 1", snap.Computations)
	}
	if snap.Requests != n || snap.DedupWaits != n-1 || snap.CacheMiss != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Batches != 1 || snap.BatchFlushSize != 1 {
		t.Errorf("batches = %d (full %d), want 1 full batch", snap.Batches, snap.BatchFlushSize)
	}
}

// TestBatcherNearIdenticalRequests mixes 8 distinct seeds across 64
// concurrent requests: one computation per seed, every waiter of a seed
// observes that seed's bytes, and all 8 computations share one batch (one
// warm evaluator build).
func TestBatcherNearIdenticalRequests(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 64, Workers: 4})
	in := testInstance(t)

	const n, seeds = 64, 8
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = solveBody(t, in, "search:phases=4,neighbors=4", uint64(i%seeds))
	}
	recs := fireCoalesced(t, srv, bodies, n)

	bySeed := map[int][]byte{}
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, w.Code)
		}
		raw, m := decodeEnvelope(t, w.Body.Bytes())
		if prev, ok := bySeed[i%seeds]; ok {
			if !bytes.Equal(prev, raw) {
				t.Fatalf("seed %d returned two different results", i%seeds)
			}
		} else {
			bySeed[i%seeds] = raw
		}
		if m.BatchSize != seeds {
			t.Errorf("request %d batch size %d, want %d distinct computations", i, m.BatchSize, seeds)
		}
	}
	for a := 0; a < seeds; a++ {
		for b := a + 1; b < seeds; b++ {
			if bytes.Equal(bySeed[a], bySeed[b]) {
				t.Errorf("seeds %d and %d returned identical payloads", a, b)
			}
		}
	}

	snap := srv.Metrics()
	if snap.Computations != seeds {
		t.Errorf("computations = %d, want %d (one per distinct seed)", snap.Computations, seeds)
	}
	if snap.Batches != 1 || snap.BatchFlushSize != 1 {
		t.Errorf("batches = %d (full %d), want one shared batch", snap.Batches, snap.BatchFlushSize)
	}
}

// TestBatcherWorkerInvariance pins the determinism contract under the
// batcher (the serving-layer analogue of TestIslandWorkerInvariance): the
// same concurrent request mix against a 1-worker and an 8-worker server
// yields byte-identical result payloads for every (spec, seed) pair.
func TestBatcherWorkerInvariance(t *testing.T) {
	in := testInstance(t)
	specs := []string{"search:phases=4,neighbors=4", "ga:generations=4,pop=8"}
	var bodies []string
	var keys []string
	for _, spec := range specs {
		for seed := uint64(0); seed < 4; seed++ {
			// Two copies of each pair so dedup paths are exercised too.
			for rep := 0; rep < 2; rep++ {
				bodies = append(bodies, solveBody(t, in, spec, seed))
				keys = append(keys, fmt.Sprintf("%s|%d", spec, seed))
			}
		}
	}

	results := make([]map[string][]byte, 2)
	for w, workers := range []int{1, 8} {
		srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 8, Workers: workers})
		recs := fireConcurrent(t, srv, bodies)
		got := map[string][]byte{}
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				t.Fatalf("workers=%d request %d = %d", workers, i, rec.Code)
			}
			raw := resultBytes(t, rec.Body.Bytes())
			if prev, ok := got[keys[i]]; ok && !bytes.Equal(prev, raw) {
				t.Fatalf("workers=%d: %s returned two different results", workers, keys[i])
			}
			got[keys[i]] = raw
		}
		results[w] = got
	}
	for key, want := range results[0] {
		if !bytes.Equal(want, results[1][key]) {
			t.Errorf("%s: 1-worker and 8-worker results differ", key)
		}
	}
}

// queuedTasks is the number of tasks waiting in the server's pool.
func queuedTasks(srv *Server) int {
	srv.pool.mu.Lock()
	defer srv.pool.mu.Unlock()
	return len(srv.pool.queue)
}

// TestBatchStartsWhenAWorkerFrees is the work-conserving rule: while every
// worker is held, one request leaves exactly one queued task (its batch),
// and freeing one worker runs it — no timer, no BatchSize wait.
func TestBatchStartsWhenAWorkerFrees(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, BatchSize: 100, Workers: 2})
	in := testInstance(t)
	hold := holdWorkers(t, srv)
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 1)) }()
	waitQueuedRequests(t, srv, 1)
	if n := queuedTasks(srv); n != 1 {
		t.Fatalf("%d queued pool tasks after one request, want 1", n)
	}
	hold.releaseOne()
	w := <-done
	if w.Code != http.StatusOK {
		t.Fatalf("solve = %d (body %s)", w.Code, w.Body.String())
	}
	_, m := decodeEnvelope(t, w.Body.Bytes())
	if m.CachePath != CacheMiss || m.BatchSize != 1 {
		t.Errorf("metrics = %+v, want a 1-computation miss", m)
	}
	snap := srv.Metrics()
	if snap.Batches != 1 || snap.BatchFlushSize != 0 || snap.BatchFlushTimeout != 0 {
		t.Errorf("batch counters = %+v, want one batch below BatchSize", snap)
	}
}

// TestFullBatchStaysQueued: a batch that reaches BatchSize closes to
// joiners but stays queued until a worker frees, and the next request on
// the same instance opens a second batch.
func TestFullBatchStaysQueued(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 2, Workers: 1})
	in := testInstance(t)
	hold := holdWorkers(t, srv)
	recs := make([]*httptest.ResponseRecorder, 3)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", uint64(i)))
		}()
		waitQueuedRequests(t, srv, i+1)
	}
	if n := queuedTasks(srv); n != 2 {
		t.Errorf("%d queued pool tasks, want 2 (a full batch and a new one)", n)
	}
	srv.batch.mu.Lock()
	if open := len(srv.batch.pending); open != 1 {
		t.Errorf("%d batches open to joiners, want 1", open)
	}
	srv.batch.mu.Unlock()
	hold.releaseAll()
	wg.Wait()

	sizes := map[int]int{}
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, w.Code)
		}
		_, m := decodeEnvelope(t, w.Body.Bytes())
		sizes[m.BatchSize]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("batch sizes seen %v, want two requests in a batch of 2 and one alone", sizes)
	}
	if snap := srv.Metrics(); snap.Batches != 2 || snap.BatchFlushSize != 1 || snap.Computations != 3 {
		t.Errorf("snapshot = %+v, want 2 batches (1 full) and 3 computations", snap)
	}
}

// TestBatcherDrainsOnClose: requests coalesced into an open, queued batch
// are answered by Close, and the server's goroutines exit — no waiter is
// stranded and nothing leaks.
func TestBatcherDrainsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := New(Config{CacheSize: 4, BatchSize: 100, Workers: 2})
	in := testInstance(t)
	hold := holdWorkers(t, srv)

	const n = 5
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := solveBody(t, in, "adhoc", uint64(i))
			req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			recs[i] = w
		}(i)
	}
	waitQueuedRequests(t, srv, n)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Free the workers only once Close is draining the pool, so the batch
	// is still queued and open when Close begins.
	for {
		srv.pool.mu.Lock()
		draining := srv.pool.closed
		srv.pool.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if snap := srv.Metrics(); snap.Batches != 0 {
		t.Fatalf("batch started before the workers were freed: %+v", snap)
	}
	hold.releaseAll()
	<-closed
	wg.Wait()

	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Errorf("request %d = %d after close (body %s)", i, w.Code, w.Body.String())
		}
	}
	snap := srv.Metrics()
	if snap.Batches != 1 || snap.Computations != n {
		t.Errorf("snapshot after close = %+v, want one batch of %d computations", snap, n)
	}
	if w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 99)); w.Code != http.StatusServiceUnavailable {
		t.Errorf("solve after close = %d, want 503", w.Code)
	}

	// Goroutine guard: the pool and all waiters must be gone. Allow the
	// runtime a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines %d before, %d after close — leak", before, now)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobEvictionWithDedupWaitersStillDelivers is the eviction-vs-dedup
// regression (extending TestEvictLockedSparesUnfinishedJobs): an async job
// whose computation has sync dedup waiters attached keeps delivering to
// every waiter even when the job table is flooded past maxRetainedJobs and
// the job itself is forcibly dropped from the table — results fan out over
// the computation's done channel, never through the job table or the LRU.
func TestJobEvictionWithDedupWaitersStillDelivers(t *testing.T) {
	// Held workers park the batch deterministically until after the
	// eviction storm.
	srv := newTestServer(t, Config{CacheSize: 1, Workers: 2, BatchSize: 6})
	in := testInstance(t)
	hold := holdWorkers(t, srv)

	// One async job opens (or joins) the computation...
	w := do(t, srv, "POST", "/v1/solve", solveBodyMode(t, in, "adhoc:method=Near", 3, "async"))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async solve = %d (body %s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	jobID := accepted.Job.ID

	// ...and four sync waiters dedup onto it.
	const waiters = 4
	syncBody := solveBodyMode(t, in, "adhoc:method=Near", 3, "sync")
	recs := make([]*httptest.ResponseRecorder, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(syncBody))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			recs[i] = rec
		}(i)
	}
	waitQueuedRequests(t, srv, waiters+1)

	// Eviction storm while the computation is parked: flood the table past
	// capacity (the unfinished job must be spared), then forcibly drop the
	// job anyway to prove waiter delivery does not depend on the table.
	spec, _ := ParseSpec("adhoc")
	srv.jobs.mu.Lock()
	for i := 0; i < maxRetainedJobs+50; i++ {
		srv.jobs.seq++
		id := fmt.Sprintf("job-%08d", srv.jobs.seq)
		srv.jobs.jobs[id] = &job{view: JobView{ID: id, Status: JobDone, Solver: spec}, events: newProgressHub()}
		srv.jobs.order = append(srv.jobs.order, id)
	}
	srv.jobs.evictLocked()
	_, spared := srv.jobs.jobs[jobID]
	delete(srv.jobs.jobs, jobID)
	srv.jobs.mu.Unlock()
	if !spared {
		t.Error("unfinished async job was evicted by the storm")
	}

	// Freeing the workers releases everyone; a 6th identical request
	// afterwards reads the same bytes from the cache.
	hold.releaseAll()
	wg.Wait()
	final := do(t, srv, "POST", "/v1/solve", syncBody)

	if final.Code != http.StatusOK {
		t.Fatalf("releasing request = %d", final.Code)
	}
	want := resultBytes(t, final.Body.Bytes())
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("waiter %d = %d after job eviction (body %s)", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(want, resultBytes(t, rec.Body.Bytes())) {
			t.Errorf("waiter %d result differs", i)
		}
	}
	if srv.Metrics().Computations != 1 {
		t.Errorf("computations = %d, want 1", srv.Metrics().Computations)
	}
	// The job vanished from the table (404), yet every waiter was served.
	if got := do(t, srv, "GET", "/v1/jobs/"+jobID, ""); got.Code != http.StatusNotFound {
		t.Errorf("forcibly evicted job still answers %d", got.Code)
	}
}

// rememberedEvaluator reads the batcher's remembered instance hash and
// evaluator.
func rememberedEvaluator(srv *Server) (string, *wmn.Evaluator) {
	srv.batch.mu.Lock()
	defer srv.batch.mu.Unlock()
	return srv.batch.lastHash, srv.batch.lastEval
}

// TestRememberedEvaluatorSharedAcrossWorkers runs two batches of one
// instance on two workers at once, both on the evaluator an earlier batch
// built (run it under -race: the solves share it without locks), and
// checks each result against a solve on a freshly built evaluator.
func TestRememberedEvaluatorSharedAcrossWorkers(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 1, Workers: 2})
	in := testInstance(t)
	const portfolio = "portfolio:members=search:phases=4;neighbors=2|anneal:steps=64,budget=600,slices=3"
	if w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 1)); w.Code != http.StatusOK {
		t.Fatalf("warm-up solve = %d", w.Code)
	}
	_, warm := rememberedEvaluator(srv)

	specs := []string{"search:phases=6,neighbors=4", portfolio}
	bodies := []string{solveBody(t, in, specs[0], 2), solveBody(t, in, specs[1], 3)}
	recs := fireCoalesced(t, srv, bodies, len(bodies))
	for i, w := range recs {
		if w.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, w.Code)
		}
		if want := directPayload(t, in, specs[i], uint64(i+2)); !bytes.Equal(resultBytes(t, w.Body.Bytes()), want) {
			t.Errorf("request %d on the remembered evaluator differs from a fresh build", i)
		}
	}
	if snap := srv.Metrics(); snap.Batches != 3 {
		t.Errorf("batches = %d, want 3 (warm-up plus one per request)", snap.Batches)
	}
	if hash, eval := rememberedEvaluator(srv); hash != HashInstance(in) || eval != warm {
		t.Error("the same instance rebuilt its evaluator")
	}
}

// TestRememberedEvaluatorFollowsInstance alternates two instances: each
// change of instance builds and remembers a new evaluator, a repeat reuses
// it, and a rebuilt evaluator yields the same bytes as the first.
func TestRememberedEvaluatorFollowsInstance(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0, Workers: 1})
	a := testInstance(t)
	genB := wmn.DefaultGenConfig()
	genB.Name, genB.Width, genB.Height, genB.NumRouters, genB.NumClients, genB.Seed = "server-test-b", 32, 32, 10, 20, 11
	b, err := wmn.Generate(genB)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(in *wmn.Instance, seed uint64) []byte {
		t.Helper()
		w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "search:phases=4,neighbors=4", seed))
		if w.Code != http.StatusOK {
			t.Fatalf("solve = %d (body %s)", w.Code, w.Body.String())
		}
		return resultBytes(t, w.Body.Bytes())
	}
	remembered := func(in *wmn.Instance) *wmn.Evaluator {
		t.Helper()
		hash, eval := rememberedEvaluator(srv)
		if hash != HashInstance(in) || eval == nil || eval.Instance().Name != in.Name {
			t.Fatalf("remembered evaluator is not %s's", in.Name)
		}
		return eval
	}

	first := solve(a, 1)
	evalA := remembered(a)
	solve(a, 2)
	if remembered(a) != evalA {
		t.Error("a repeat of instance a rebuilt its evaluator")
	}
	solve(b, 1)
	if remembered(b) == evalA {
		t.Error("instance b reused a's evaluator")
	}
	if again := solve(a, 1); !bytes.Equal(again, first) {
		t.Error("a rebuilt evaluator changed instance a's result bytes")
	}
	if remembered(a) == evalA {
		t.Error("instance a after b reused a replaced evaluator")
	}
}
