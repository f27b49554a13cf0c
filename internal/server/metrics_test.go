package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// getMetrics fetches and decodes GET /v1/metrics.
func getMetrics(t *testing.T, srv *Server) MetricsSnapshot {
	t.Helper()
	w := do(t, srv, "GET", "/v1/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", w.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap
}

// TestMetricsEndpointGoldenShape pins the JSON surface of GET /v1/metrics:
// the exact top-level key set and the exact shape of each phase object, so
// dashboards scraping the endpoint break loudly here rather than silently
// in production.
func TestMetricsEndpointGoldenShape(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4})
	in := testInstance(t)
	if w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 1)); w.Code != http.StatusOK {
		t.Fatalf("solve = %d", w.Code)
	}

	w := do(t, srv, "GET", "/v1/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	wantTop := []string{
		"async", "batchBuild", "batchFlushSize",
		"batchFlushTimeout", "batches", "cacheHits", "cacheMisses",
		"computations", "dedupWaits", "forwardFails", "forwarded",
		"queueWait", "requests", "solve", "storeHits", "sync", "total",
	}
	sort.Strings(wantTop)
	var gotTop []string
	for k := range top {
		gotTop = append(gotTop, k)
	}
	sort.Strings(gotTop)
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Errorf("top-level keys = %v, want %v", gotTop, wantTop)
	}

	wantPhase := []string{"count", "maxNs", "p50Ns", "p99Ns"}
	for _, phase := range []string{"queueWait", "batchBuild", "solve", "total"} {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(top[phase], &obj); err != nil {
			t.Fatalf("phase %s: %v", phase, err)
		}
		var got []string
		for k := range obj {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, wantPhase) {
			t.Errorf("phase %s keys = %v, want %v", phase, got, wantPhase)
		}
	}
}

// TestMetricsCountersMonotonicAndExact walks a known request sequence and
// checks the endpoint after each step: counters only ever grow, and land on
// the exactly predictable totals (miss, then hit, then a distinct miss).
func TestMetricsCountersMonotonicAndExact(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 8})
	in := testInstance(t)

	steps := []struct {
		seed                 uint64
		wantRequests         int64
		wantHits, wantMisses int64
		wantComputations     int64
	}{
		{seed: 1, wantRequests: 1, wantHits: 0, wantMisses: 1, wantComputations: 1},
		{seed: 1, wantRequests: 2, wantHits: 1, wantMisses: 1, wantComputations: 1},
		{seed: 2, wantRequests: 3, wantHits: 1, wantMisses: 2, wantComputations: 2},
	}
	var prev MetricsSnapshot
	for i, step := range steps {
		if w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", step.seed)); w.Code != http.StatusOK {
			t.Fatalf("step %d solve = %d", i, w.Code)
		}
		snap := getMetrics(t, srv)
		if snap.Requests < prev.Requests || snap.CacheHits < prev.CacheHits ||
			snap.CacheMiss < prev.CacheMiss || snap.Computations < prev.Computations ||
			snap.Batches < prev.Batches {
			t.Fatalf("step %d: counters regressed: %+v -> %+v", i, prev, snap)
		}
		if snap.Requests != step.wantRequests || snap.CacheHits != step.wantHits ||
			snap.CacheMiss != step.wantMisses || snap.Computations != step.wantComputations {
			t.Errorf("step %d: got requests=%d hits=%d misses=%d computations=%d, want %d/%d/%d/%d",
				i, snap.Requests, snap.CacheHits, snap.CacheMiss, snap.Computations,
				step.wantRequests, step.wantHits, step.wantMisses, step.wantComputations)
		}
		if snap.Sync != snap.Requests || snap.Async != 0 {
			t.Errorf("step %d: sync/async split %d/%d, want %d/0", i, snap.Sync, snap.Async, snap.Requests)
		}
		if snap.Total.Count != snap.Requests {
			t.Errorf("step %d: total phase count %d != requests %d", i, snap.Total.Count, snap.Requests)
		}
		prev = snap
	}
}

// TestRequestMetricsOnEveryPath is the table-driven pin of the acceptance
// criterion: every request path — sync miss, sync cache hit, async miss,
// async cache hit, and the concurrent miss/dedup-wait pair — carries a
// populated RequestMetrics in its response envelope or job view.
func TestRequestMetricsOnEveryPath(t *testing.T) {
	in := testInstance(t)

	// syncSolve returns the RequestMetrics of one sync request.
	syncSolve := func(t *testing.T, srv *Server, seed uint64) RequestMetrics {
		t.Helper()
		w := do(t, srv, "POST", "/v1/solve", solveBodyMode(t, in, "adhoc", seed, "sync"))
		if w.Code != http.StatusOK {
			t.Fatalf("sync solve = %d", w.Code)
		}
		_, m := decodeEnvelope(t, w.Body.Bytes())
		return m
	}

	// asyncSolve returns the RequestMetrics of one finished async request.
	asyncSolve := func(t *testing.T, srv *Server, seed uint64) RequestMetrics {
		t.Helper()
		w := do(t, srv, "POST", "/v1/solve", solveBodyMode(t, in, "adhoc", seed, "async"))
		if w.Code != http.StatusAccepted {
			t.Fatalf("async solve = %d", w.Code)
		}
		var accepted struct {
			Job JobView `json:"job"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
			t.Fatal(err)
		}
		view := pollJob(t, srv, accepted.Job.ID)
		if view.Status != JobDone {
			t.Fatalf("job failed: %s", view.Error)
		}
		if view.RequestMetrics == nil {
			t.Fatal("finished async job has no requestMetrics")
		}
		return *view.RequestMetrics
	}

	check := func(t *testing.T, m RequestMetrics, mode, path string) {
		t.Helper()
		if m.Mode != mode || m.CachePath != path {
			t.Errorf("metrics = %s/%s, want %s/%s", m.Mode, m.CachePath, mode, path)
		}
		if m.TotalNs <= 0 {
			t.Errorf("totalNs = %d, want > 0", m.TotalNs)
		}
		switch path {
		case CacheHit:
			if m.SolveNs != 0 || m.BatchSize != 0 {
				t.Errorf("cache hit reports solve work: %+v", m)
			}
		default:
			if m.SolveNs <= 0 || m.BatchSize < 1 {
				t.Errorf("%s path missing solve telemetry: %+v", path, m)
			}
		}
	}

	t.Run("sync miss then hit", func(t *testing.T) {
		srv := newTestServer(t, Config{CacheSize: 8})
		check(t, syncSolve(t, srv, 1), "sync", CacheMiss)
		check(t, syncSolve(t, srv, 1), "sync", CacheHit)
	})

	t.Run("async miss then hit", func(t *testing.T) {
		srv := newTestServer(t, Config{CacheSize: 8})
		check(t, asyncSolve(t, srv, 2), "async", CacheMiss)
		check(t, asyncSolve(t, srv, 2), "async", CacheHit)
	})

	t.Run("concurrent miss and dedup-wait", func(t *testing.T) {
		// The held workers keep the batch queued until both identical
		// requests attached, so exactly one of the pair is the miss and the
		// other the dedup-wait — which is which depends on arrival order.
		srv := newTestServer(t, Config{CacheSize: 0, BatchSize: 2})
		hold := holdWorkers(t, srv)
		var ms [2]RequestMetrics
		var wg sync.WaitGroup
		for i := range ms {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body := solveBodyMode(t, in, "adhoc", 9, "sync")
				req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("request %d = %d", i, w.Code)
					return
				}
				_, ms[i] = decodeEnvelope(t, w.Body.Bytes())
			}(i)
		}
		waitQueuedRequests(t, srv, 2)
		hold.releaseAll()
		wg.Wait()
		paths := []string{ms[0].CachePath, ms[1].CachePath}
		sort.Strings(paths)
		if paths[0] != CacheDedupWait || paths[1] != CacheMiss {
			t.Fatalf("cache paths = %v, want one miss + one dedup-wait", paths)
		}
		for i, m := range ms {
			if m.CachePath == CacheMiss {
				check(t, m, "sync", CacheMiss)
			} else {
				check(t, m, "sync", CacheDedupWait)
			}
			if m.TotalNs <= 0 {
				t.Errorf("request %d totalNs = %d", i, m.TotalNs)
			}
		}
	})
}
