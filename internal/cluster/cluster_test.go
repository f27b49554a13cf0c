package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// swapHandler lets a test replace a replica's handler while its listener
// (and therefore its URL) stays up — the in-process stand-in for
// restarting the replica process on the same address.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testCluster is an in-process multi-replica cluster: real HTTP servers
// wired as each other's peers.
type testCluster struct {
	urls     []string
	nodes    []*Node
	servers  []*httptest.Server
	swappers []*swapHandler
}

// newTestCluster starts size replicas. configure, when non-nil, adjusts
// each replica's Config (indexed) before the node is built — the hook
// tests use to set journal paths or quotas.
func newTestCluster(t *testing.T, size int, configure func(i int, cfg *Config)) *testCluster {
	t.Helper()
	c := &testCluster{}
	for i := 0; i < size; i++ {
		ts := httptest.NewUnstartedServer(nil)
		sw := &swapHandler{h: http.NotFoundHandler()}
		ts.Config.Handler = sw
		c.servers = append(c.servers, ts)
		c.swappers = append(c.swappers, sw)
		c.urls = append(c.urls, "http://"+ts.Listener.Addr().String())
	}
	for i := 0; i < size; i++ {
		cfg := Config{
			SelfURL: c.urls[i],
			Peers:   append([]string(nil), c.urls...),
			Server:  server.Config{CacheSize: 16, Workers: 2},
		}
		if configure != nil {
			configure(i, &cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
		c.swappers[i].swap(node)
		c.servers[i].Start()
	}
	t.Cleanup(func() {
		for _, ts := range c.servers {
			ts.CloseClientConnections()
			ts.Close()
		}
		for _, n := range c.nodes {
			n.Close()
		}
	})
	return c
}

// restart replaces replica i in place: the old node closes (releasing the
// journal file), a fresh node with the same config boots on the same URL.
func (c *testCluster) restart(t *testing.T, i int, configure func(cfg *Config)) {
	t.Helper()
	old := c.nodes[i]
	cfg := old.cfg
	old.Close()
	if configure != nil {
		configure(&cfg)
	}
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[i] = node
	c.swappers[i].swap(node)
}

func clusterInstance(t *testing.T, seed uint64) *wmn.Instance {
	t.Helper()
	cfg := wmn.DefaultGenConfig()
	cfg.Name = fmt.Sprintf("cluster-test-%d", seed)
	cfg.Width, cfg.Height = 32, 32
	cfg.NumRouters = 10
	cfg.NumClients = 20
	cfg.Seed = seed
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// instanceOwnedBy searches generator seeds for an instance the ring
// assigns to the wanted replica, so tests can pin which replica owns the
// work regardless of how URLs hashed this run.
func instanceOwnedBy(t *testing.T, c *testCluster, owner int) *wmn.Instance {
	t.Helper()
	ring := c.nodes[0].ring
	for seed := uint64(1); seed < 200; seed++ {
		in := clusterInstance(t, seed)
		if ring.Owner(server.HashInstance(in)) == c.urls[owner] {
			return in
		}
	}
	t.Fatal("no generator seed under 200 hashes to the wanted replica")
	return nil
}

func solveReqBody(t *testing.T, in *wmn.Instance, solver string, seed uint64, mode string) string {
	t.Helper()
	m := map[string]any{"solver": solver, "seed": seed, "instance": in}
	if mode != "" {
		m["mode"] = mode
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postJSON(t *testing.T, url, body string, headers map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

// TestThreeReplicaDispatchAndReplay is the acceptance path of the cluster
// subsystem, end to end over real HTTP:
//
//  1. a job submitted to replica A for an instance owned by replica B is
//     forwarded and executes exactly once, on B;
//  2. GET /v1/jobs/{id} returns byte-identical views from all three
//     replicas;
//  3. after B restarts, the journaled result is served as a cache hit —
//     no recomputation.
func TestThreeReplicaDispatchAndReplay(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	c := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.JournalPath = fmt.Sprintf("%s/replica-%d.journal", dir, i)
	})
	const owner = 1 // "replica B"
	in := instanceOwnedBy(t, c, owner)
	body := solveReqBody(t, in, "search:phases=20,neighbors=4", 42, "async")

	// 1. Submit to A; the job must land on B.
	resp, acceptBody := postJSON(t, c.urls[0]+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve via A = %d (%s)", resp.StatusCode, acceptBody)
	}
	if got := resp.Header.Get("X-Served-By"); got != c.urls[owner] {
		t.Fatalf("X-Served-By = %q, want %q", got, c.urls[owner])
	}
	var accepted struct {
		Job server.JobView `json:"job"`
	}
	if err := json.Unmarshal([]byte(acceptBody), &accepted); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(accepted.Job.ID, c.nodes[owner].NodeID()+"-job-") {
		t.Fatalf("job id %q does not carry B's node prefix %q", accepted.Job.ID, c.nodes[owner].NodeID())
	}

	// Poll until done (through A, which forwards each poll to B).
	deadline := time.Now().Add(20 * time.Second)
	var doneBody string
	for {
		_, b := getBody(t, c.urls[0]+"/v1/jobs/"+accepted.Job.ID)
		var view server.JobView
		if err := json.Unmarshal([]byte(b), &view); err != nil {
			t.Fatalf("job view: %v (%s)", err, b)
		}
		if view.Status == server.JobDone {
			doneBody = b
			break
		}
		if view.Status == server.JobFailed {
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck at %s", view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Exactly once, on B: only B's server computed anything.
	for i, n := range c.nodes {
		m := n.Server().Metrics()
		want := int64(0)
		if i == owner {
			want = 1
		}
		if m.Computations != want {
			t.Errorf("replica %d computations = %d, want %d", i, m.Computations, want)
		}
	}
	if f := c.nodes[0].Server().Metrics().Forwarded; f < 2 { // solve + at least one poll
		t.Errorf("A forwarded %d requests, want >= 2", f)
	}

	// 2. The job view is byte-identical from every replica.
	for i := 0; i < 3; i++ {
		_, b := getBody(t, c.urls[i]+"/v1/jobs/"+accepted.Job.ID)
		if b != doneBody {
			t.Errorf("job view via replica %d differs from the owner's bytes", i)
		}
	}

	// 3. Restart B; its LRU is gone but the journal replays, so the same
	// solve is a store hit — served, not recomputed.
	c.restart(t, owner, nil)
	if st := c.nodes[owner].Journal().Stats(); st.Replayed == 0 {
		t.Fatalf("restarted journal replayed nothing: %+v", st)
	}
	syncBody := solveReqBody(t, in, "search:phases=20,neighbors=4", 42, "sync")
	resp2, resBody := postJSON(t, c.urls[2]+"/v1/solve", syncBody, nil) // via C
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("solve after restart = %d (%s)", resp2.StatusCode, resBody)
	}
	if got := resp2.Header.Get("X-Cache"); got != server.CacheStoreHit {
		t.Errorf("X-Cache after restart = %q, want %q", got, server.CacheStoreHit)
	}
	var sr server.SolveResponse
	if err := json.Unmarshal([]byte(resBody), &sr); err != nil {
		t.Fatal(err)
	}
	var jobView server.JobView
	if err := json.Unmarshal([]byte(doneBody), &jobView); err != nil {
		t.Fatal(err)
	}
	if string(sr.Result) != string(jobView.Result) {
		t.Error("replayed result differs from the originally computed one")
	}
	if m := c.nodes[owner].Server().Metrics(); m.Computations != 0 {
		t.Errorf("restarted replica recomputed %d times, want 0", m.Computations)
	}

	// Goroutine-leak guard: closing every replica returns the process to
	// its baseline (the t.Cleanup path runs the closes; do it now so the
	// guard can poll).
	for _, ts := range c.servers {
		ts.CloseClientConnections()
		ts.Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	guard := time.Now().Add(10 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= before {
			return
		} else if time.Now().After(guard) {
			t.Fatalf("goroutines %d before, %d after close — leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolveByteIdenticalFromEveryReplica pins the routing invariant: the
// same sync solve through each of the three replicas returns the same
// bytes, with non-owners relaying (X-Served-By) rather than recomputing.
func TestSolveByteIdenticalFromEveryReplica(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	in := instanceOwnedBy(t, c, 2)
	body := solveReqBody(t, in, "adhoc", 7, "sync")

	var results []string
	for i := 0; i < 3; i++ {
		resp, b := postJSON(t, c.urls[i]+"/v1/solve", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve via %d = %d (%s)", i, resp.StatusCode, b)
		}
		var sr server.SolveResponse
		if err := json.Unmarshal([]byte(b), &sr); err != nil {
			t.Fatal(err)
		}
		results = append(results, string(sr.Result))
		if i != 2 {
			if got := resp.Header.Get("X-Served-By"); got != c.urls[2] {
				t.Errorf("replica %d X-Served-By = %q, want owner %q", i, got, c.urls[2])
			}
		}
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Error("result bytes differ across entry replicas")
	}
	// One computation total; the repeats were cache hits on the owner.
	if m := c.nodes[2].Server().Metrics(); m.Computations != 1 || m.CacheHits != 2 {
		t.Errorf("owner computations=%d cacheHits=%d, want 1 and 2", m.Computations, m.CacheHits)
	}
}

// TestEventsStreamAcrossReplicas covers SSE forwarding: subscribing on a
// replica that does not own the job still delivers at least one progress
// event and the terminal done event.
func TestEventsStreamAcrossReplicas(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	in := instanceOwnedBy(t, c, 0)
	body := solveReqBody(t, in, "search:phases=30,neighbors=4", 3, "async")

	resp, acceptBody := postJSON(t, c.urls[1]+"/v1/solve", body, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solve = %d (%s)", resp.StatusCode, acceptBody)
	}
	var accepted struct {
		Job server.JobView `json:"job"`
	}
	if err := json.Unmarshal([]byte(acceptBody), &accepted); err != nil {
		t.Fatal(err)
	}

	// Subscribe via replica 2 — owner is replica 0, so this hop forwards.
	esResp, stream := getBody(t, c.urls[2]+"/v1/jobs/"+accepted.Job.ID+"/events")
	if esResp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d (%s)", esResp.StatusCode, stream)
	}
	if ct := esResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	progress := strings.Count(stream, "event: progress")
	done := strings.Count(stream, "event: done")
	if progress < 1 || done != 1 {
		t.Errorf("stream carries %d progress and %d done events, want >=1 and exactly 1\n%s", progress, done, stream)
	}
	if !strings.Contains(stream, `"status":"done"`) {
		t.Error("terminal event does not carry the finished job view")
	}
}

// TestQuotaRejectsOverBurst pins the admission contract: a key with a
// burst of N gets N requests through and a 429 with Retry-After on
// request N+1, while other keys are unaffected; forwarded requests are
// never double-charged.
func TestQuotaRejectsOverBurst(t *testing.T) {
	const burst = 3
	c := newTestCluster(t, 1, func(i int, cfg *Config) {
		cfg.Quota = QuotaConfig{RatePerSec: 0.001, Burst: burst} // effectively no refill
	})
	in := clusterInstance(t, 1)
	body := solveReqBody(t, in, "adhoc", 1, "sync")

	for i := 0; i < burst; i++ {
		resp, b := postJSON(t, c.urls[0]+"/v1/solve", body, map[string]string{"X-API-Key": "alice"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d (%s)", i+1, resp.StatusCode, b)
		}
	}
	resp, _ := postJSON(t, c.urls[0]+"/v1/solve", body, map[string]string{"X-API-Key": "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request %d = %d, want 429", burst+1, resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 lacks Retry-After")
	}
	// A different key still has its own bucket.
	resp2, _ := postJSON(t, c.urls[0]+"/v1/solve", body, map[string]string{"X-API-Key": "bob"})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("other key = %d, want 200", resp2.StatusCode)
	}
	// Forwarded requests skip the quota (already charged at the front
	// door): alice's exhausted bucket does not block a forwarded replay.
	resp3, _ := postJSON(t, c.urls[0]+"/v1/solve", body,
		map[string]string{"X-API-Key": "alice", forwardedHeader: "peer"})
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("forwarded request = %d, want 200 (quota must not double-charge)", resp3.StatusCode)
	}
}

// TestClusterEndpoint smoke-tests GET /v1/cluster.
func TestClusterEndpoint(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, 2, func(i int, cfg *Config) {
		cfg.JournalPath = fmt.Sprintf("%s/r%d.journal", dir, i)
	})
	_, b := getBody(t, c.urls[0]+"/v1/cluster")
	var info ClusterInfo
	if err := json.Unmarshal([]byte(b), &info); err != nil {
		t.Fatal(err)
	}
	if info.Self != c.urls[0] || len(info.Peers) != 2 || info.Journal == nil {
		t.Errorf("cluster info = %+v", info)
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestFrontDoorOversizedBodyIs413 streams a valid request body over HTTP
// with chunked encoding (no Content-Length) exactly at the front door's
// body limit, which is served, and one byte over it, which is rejected
// with 413 rather than truncated into a 400.
func TestFrontDoorOversizedBodyIs413(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	body := solveReqBody(t, clusterInstance(t, 1), "adhoc", 1, "sync")
	head := strings.TrimSuffix(body, "}")
	defer func(limit int64) { maxBodyBytes = limit }(maxBodyBytes)
	maxBodyBytes = int64(len(body)) + 1024

	for _, tc := range []struct {
		size int64
		want int
	}{{maxBodyBytes, http.StatusOK}, {maxBodyBytes + 1, http.StatusRequestEntityTooLarge}} {
		stream := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, tc.size-int64(len(head))-1), strings.NewReader("}"))
		req, err := http.NewRequest("POST", c.urls[0]+"/v1/solve", stream)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body (limit %d) = %d, want %d (body %s)", tc.size, maxBodyBytes, resp.StatusCode, tc.want, msg)
		}
	}
}
