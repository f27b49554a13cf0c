package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"meshplace/internal/localsearch"
	"meshplace/internal/wmn"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, srv *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// decodeEnvelope splits a 200 solve body into its canonical result bytes
// and the per-request telemetry.
func decodeEnvelope(t *testing.T, body []byte) (json.RawMessage, RequestMetrics) {
	t.Helper()
	var env SolveResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode solve envelope: %v (body %s)", err, body)
	}
	return env.Result, env.RequestMetrics
}

// resultBytes returns just the canonical result payload of a 200 body —
// the part that is byte-identical for identical request triples.
func resultBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	res, _ := decodeEnvelope(t, body)
	return res
}

// solveBody builds a /v1/solve request body embedding the test instance.
func solveBody(t *testing.T, in *wmn.Instance, solver string, seed uint64) string {
	t.Helper()
	payload, err := json.Marshal(map[string]any{
		"solver":   solver,
		"seed":     seed,
		"instance": in,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

// bothBody is a request illegally carrying an instance AND a generate
// config.
func bothBody(t *testing.T, in *wmn.Instance) string {
	t.Helper()
	gen := wmn.DefaultGenConfig()
	payload, err := json.Marshal(map[string]any{
		"solver": "adhoc", "seed": 1, "instance": in, "generate": gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(payload)
}

func TestHandleSolveTable(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16, MaxRouters: 64, MaxClients: 128})
	in := testInstance(t)
	big := testInstance(t)
	big.Radii = make([]float64, 100)
	for i := range big.Radii {
		big.Radii[i] = 2
	}

	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"bad JSON", "POST", "/v1/solve", "{not json", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/solve", `{"solvr":"adhoc"}`, http.StatusBadRequest},
		{"missing solver", "POST", "/v1/solve", `{"seed":1}`, http.StatusBadRequest},
		{"unknown solver", "POST", "/v1/solve", `{"solver":"quantum","seed":1}`, http.StatusBadRequest},
		{"bad solver params", "POST", "/v1/solve", `{"solver":"search:phases=0","seed":1}`, http.StatusBadRequest},
		{"no instance", "POST", "/v1/solve", `{"solver":"adhoc","seed":1}`, http.StatusBadRequest},
		{"both instance and generate", "POST", "/v1/solve", bothBody(t, in), http.StatusBadRequest},
		{"invalid instance", "POST", "/v1/solve", `{"solver":"adhoc","seed":1,"instance":{"name":"x","width":-4,"height":8,"radii":[2]}}`, http.StatusBadRequest},
		{"oversized instance", "POST", "/v1/solve", solveBody(t, big, "adhoc", 1), http.StatusRequestEntityTooLarge},
		{"unknown mode", "POST", "/v1/solve", strings.Replace(solveBody(t, in, "adhoc", 1), `"seed":1`, `"seed":1,"mode":"warp"`, 1), http.StatusBadRequest},
		{"solve ok", "POST", "/v1/solve", solveBody(t, in, "adhoc:method=Near", 1), http.StatusOK},
		{"get on solve", "GET", "/v1/solve", "", http.StatusMethodNotAllowed},
		{"unknown job", "GET", "/v1/jobs/job-99999999", "", http.StatusNotFound},
		{"healthz", "GET", "/healthz", "", http.StatusOK},
		{"solvers", "GET", "/v1/solvers", "", http.StatusOK},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := do(t, srv, tt.method, tt.path, tt.body)
			if w.Code != tt.wantStatus {
				t.Errorf("%s %s = %d, want %d (body %s)", tt.method, tt.path, w.Code, tt.wantStatus, w.Body.String())
			}
			if w.Code >= 400 && w.Code != http.StatusMethodNotAllowed {
				var eb errorBody
				if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
					t.Errorf("error response is not {error: ...}: %s", w.Body.String())
				}
			}
		})
	}
}

// TestSolveAnswersEveryRegisteredSolver is the serving acceptance check:
// POST /v1/solve succeeds for a spec of every registry kind, and a
// repeated seeded request is a byte-identical cache hit.
func TestSolveAnswersEveryRegisteredSolver(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 32})
	in := testInstance(t)
	covered := map[string]bool{}
	for _, spec := range quickSpecs(t) {
		covered[spec.Kind()] = true
		body := solveBody(t, in, spec.String(), 42)
		first := do(t, srv, "POST", "/v1/solve", body)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: solve = %d (body %s)", spec, first.Code, first.Body.String())
		}
		raw, m := decodeEnvelope(t, first.Body.Bytes())
		var res SolveResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s: decode result: %v", spec, err)
		}
		if res.Solver.String() != spec.String() || res.Seed != 42 {
			t.Errorf("%s: result echoes %s seed %d", spec, res.Solver, res.Seed)
		}
		if err := res.Solution.Validate(in); err != nil {
			t.Errorf("%s: served solution invalid: %v", spec, err)
		}
		if m.Mode != "sync" || m.CachePath == "" {
			t.Errorf("%s: request metrics unpopulated: %+v", spec, m)
		}
		second := do(t, srv, "POST", "/v1/solve", body)
		if second.Header().Get("X-Cache") != "hit" {
			t.Errorf("%s: repeat was not a cache hit", spec)
		}
		if !bytes.Equal(raw, resultBytes(t, second.Body.Bytes())) {
			t.Errorf("%s: repeat result not byte-identical", spec)
		}
	}
	for _, kind := range Kinds() {
		if !covered[kind] {
			t.Errorf("registered kind %q not exercised over HTTP", kind)
		}
	}
}

func TestHandleSolversListsRegistry(t *testing.T) {
	srv := newTestServer(t, Config{})
	w := do(t, srv, "GET", "/v1/solvers", "")
	var infos []SolverInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(Kinds()) {
		t.Fatalf("/v1/solvers lists %d kinds, want %d", len(infos), len(Kinds()))
	}
}

func TestSolveCacheHitIsByteIdentical(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16})
	in := testInstance(t)
	body := solveBody(t, in, "search:phases=4,neighbors=4", 42)

	first := do(t, srv, "POST", "/v1/solve", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first solve: %d %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first solve X-Cache = %q, want miss", got)
	}
	second := do(t, srv, "POST", "/v1/solve", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second solve: %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second solve X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(resultBytes(t, first.Body.Bytes()), resultBytes(t, second.Body.Bytes())) {
		t.Error("cached result is not byte-identical to the computed one")
	}

	// A different seed is a different entry, not a hit.
	other := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "search:phases=4,neighbors=4", 43))
	if got := other.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("different seed X-Cache = %q, want miss", got)
	}
	if bytes.Equal(resultBytes(t, first.Body.Bytes()), resultBytes(t, other.Body.Bytes())) {
		t.Error("different seeds returned identical solutions payloads")
	}
}

// TestConcurrentSolveDeterminism is the -race cache contract: many
// concurrent identical seeded requests all succeed and return
// byte-identical bodies, whether they raced past the cache or hit it.
func TestConcurrentSolveDeterminism(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16, Workers: 4})
	in := testInstance(t)
	body := solveBody(t, in, "hillclimb:steps=64,noimprove=16", 7)

	const n = 16
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(resultBytes(t, bodies[0]), resultBytes(t, b)) {
			t.Fatalf("request %d result differs from request 0", i)
		}
	}
	stats := srv.Cache().Stats()
	if stats.Entries != 1 {
		t.Errorf("cache holds %d entries after identical requests, want 1", stats.Entries)
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queue states.
func pollJob(t *testing.T, srv *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		w := do(t, srv, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, w.Code)
		}
		var view JobView
		if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view.Status == JobDone || view.Status == JobFailed {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func TestAsyncSolveOverThreshold(t *testing.T) {
	// SyncRouters 1 forces the 12-router test instance onto the job path.
	srv := newTestServer(t, Config{CacheSize: 16, SyncRouters: 1, Workers: 2})
	in := testInstance(t)
	body := solveBody(t, in, "adhoc:method=Corners", 9)

	w := do(t, srv, "POST", "/v1/solve", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async solve = %d, want 202 (body %s)", w.Code, w.Body.String())
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Job.ID == "" {
		t.Fatal("202 without a job id")
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+accepted.Job.ID {
		t.Errorf("Location = %q", loc)
	}

	view := pollJob(t, srv, accepted.Job.ID)
	if view.Status != JobDone {
		t.Fatalf("job ended %s: %s", view.Status, view.Error)
	}

	// The async result must be byte-identical to a forced-sync solve of
	// the same request (which is now also a cache hit).
	sync := do(t, srv, "POST", "/v1/solve", strings.Replace(body, `"seed":9`, `"seed":9,"mode":"sync"`, 1))
	if sync.Code != http.StatusOK {
		t.Fatalf("sync solve: %d", sync.Code)
	}
	if sync.Header().Get("X-Cache") != "hit" {
		t.Error("sync solve after async job missed the cache")
	}
	if !bytes.Equal([]byte(view.Result), resultBytes(t, sync.Body.Bytes())) {
		t.Error("async result differs from sync solve bytes")
	}
	if view.RequestMetrics == nil || view.RequestMetrics.Mode != "async" {
		t.Errorf("finished job carries no async request metrics: %+v", view.RequestMetrics)
	}
}

func TestModeOverrides(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16, SyncRouters: 1000})
	in := testInstance(t)

	// Forced async on a small instance.
	body := strings.Replace(solveBody(t, in, "adhoc", 3), `"seed":3`, `"seed":3,"mode":"async"`, 1)
	w := do(t, srv, "POST", "/v1/solve", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("forced async = %d, want 202", w.Code)
	}

	// Auto mode under the threshold stays sync.
	w = do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 3))
	if w.Code != http.StatusOK {
		t.Fatalf("auto sync = %d, want 200", w.Code)
	}
}

func TestSolveFromGenerateConfig(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 16})
	gen := wmn.DefaultGenConfig()
	gen.Name = "gen-test"
	gen.NumRouters = 10
	gen.NumClients = 20
	gen.Width, gen.Height = 32, 32
	payload, err := json.Marshal(map[string]any{"solver": "adhoc", "seed": 5, "generate": gen})
	if err != nil {
		t.Fatal(err)
	}
	first := do(t, srv, "POST", "/v1/solve", string(payload))
	if first.Code != http.StatusOK {
		t.Fatalf("generate solve = %d (body %s)", first.Code, first.Body.String())
	}
	// Generation is seeded, so the same generate request is a cache hit.
	second := do(t, srv, "POST", "/v1/solve", string(payload))
	if second.Header().Get("X-Cache") != "hit" {
		t.Error("repeated generate request missed the cache")
	}
	if !bytes.Equal(resultBytes(t, first.Body.Bytes()), resultBytes(t, second.Body.Bytes())) {
		t.Error("repeated generate request not byte-identical")
	}
}

func TestHealthzReportsState(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 8, Workers: 3})
	w := do(t, srv, "GET", "/healthz", "")
	var health struct {
		Status  string     `json:"status"`
		Workers int        `json:"workers"`
		Jobs    int        `json:"jobs"`
		Cache   CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Workers != 3 || health.Cache.Capacity != 8 {
		t.Errorf("healthz = %+v", health)
	}
}

func TestCacheDisabled(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 0})
	in := testInstance(t)
	body := solveBody(t, in, "adhoc", 11)
	first := do(t, srv, "POST", "/v1/solve", body)
	second := do(t, srv, "POST", "/v1/solve", body)
	if first.Header().Get("X-Cache") != "miss" || second.Header().Get("X-Cache") != "miss" {
		t.Error("disabled cache reported a hit")
	}
	// Determinism holds even without the cache.
	if !bytes.Equal(resultBytes(t, first.Body.Bytes()), resultBytes(t, second.Body.Bytes())) {
		t.Error("uncached repeats not byte-identical")
	}
}

func TestBuildErrorsAreClientErrors(t *testing.T) {
	// An inverted annealing schedule parses per-parameter but fails the
	// cross-field build check; the handler builds the solver up front so
	// the client sees a 400, not a 500 or a permanently failed job.
	srv := newTestServer(t, Config{CacheSize: 4})
	in := testInstance(t)
	for _, mode := range []string{"sync", "async"} {
		body := strings.Replace(solveBody(t, in, "anneal:starttemp=0.001,endtemp=0.1", 1),
			`"seed":1`, `"seed":1,"mode":"`+mode+`"`, 1)
		w := do(t, srv, "POST", "/v1/solve", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("inverted anneal schedule (%s) = %d, want 400 (body %s)", mode, w.Code, w.Body.String())
		}
	}
}

func TestAsyncBacklogLimitReturns429(t *testing.T) {
	// A directly submitted blocking job fills the one-slot backlog
	// deterministically; the HTTP async request then has nowhere to go.
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 1, MaxPendingJobs: 1, SyncRouters: 1})
	in := testInstance(t)

	release := make(chan struct{})
	spec, _ := ParseSpec("adhoc")
	if _, err := srv.jobs.submit(spec, 99, func(func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
		<-release
		return []byte("{}"), RequestMetrics{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	w := do(t, srv, "POST", "/v1/solve", solveBody(t, in, "adhoc", 1))
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("async over backlog = %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	close(release)
}

func ExampleServer() {
	srv := New(Config{CacheSize: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	fmt.Println(resp.StatusCode)
	// Output: 200
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// paddedJSON streams the JSON object obj padded with whitespace before its
// closing brace to exactly size bytes, without holding the padding in
// memory.
func paddedJSON(obj string, size int64) io.Reader {
	head := strings.TrimSuffix(obj, "}")
	return io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, size-int64(len(head))-1), strings.NewReader("}"))
}

// TestOversizedBodyIs413 streams a valid request body (no Content-Length)
// exactly at the body limit, which is served, and one byte over it, which
// is rejected with 413 rather than truncated into a 400.
func TestOversizedBodyIs413(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 4, Workers: 1})
	body := solveBody(t, testInstance(t), "adhoc", 1)
	defer func(limit int64) { maxRequestBytes = limit }(maxRequestBytes)
	maxRequestBytes = int64(len(body)) + 1024

	for _, tc := range []struct {
		size int64
		want int
	}{{maxRequestBytes, http.StatusOK}, {maxRequestBytes + 1, http.StatusRequestEntityTooLarge}} {
		req := httptest.NewRequest("POST", "/v1/solve", paddedJSON(body, tc.size))
		if req.ContentLength != -1 {
			t.Fatalf("body has a known length %d, want a streamed one", req.ContentLength)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Errorf("%d-byte body (limit %d) = %d, want %d (body %s)", tc.size, maxRequestBytes, w.Code, tc.want, w.Body.String())
		}
	}
}
