package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"meshplace/internal/localsearch"
	"meshplace/internal/wmn"
)

// Config parameterizes a Server. The zero value is usable: every field
// documents the default its zero selects, except CacheSize where zero
// disables caching explicitly.
type Config struct {
	// Workers sizes the server's one worker pool, which runs every solve:
	// each flushed batch, or each direct solve under DisableBatching.
	// Handlers and async jobs wait for their solve outside the pool, so
	// no pool task waits on another and any size makes progress. 0
	// selects one per available CPU.
	Workers int
	// CacheSize is the LRU result-cache capacity in entries. 0 disables
	// the cache; DefaultConfig uses 256.
	CacheSize int
	// SyncRouters is the size threshold of POST /v1/solve in auto mode:
	// instances with more routers than this are answered with an async
	// job handle instead of a blocking solve. 0 selects 128.
	SyncRouters int
	// MaxRouters and MaxClients reject oversized instances outright
	// (413). Zeros select 4096 and 262144.
	MaxRouters int
	MaxClients int
	// MaxPendingJobs bounds the queued + running async backlog; further
	// async requests are rejected with 429 until jobs drain. 0 selects
	// 256.
	MaxPendingJobs int
	// BatchSize is the number of requests (distinct computations plus
	// dedup attaches) a pending batch coalesces before flushing early.
	// 0 selects 16.
	BatchSize int
	// BatchMaxWait is how long the first request of a batch waits for
	// company before the batch flushes anyway. 0 selects 2ms.
	BatchMaxWait time.Duration
	// DisableBatching bypasses the batcher entirely: every cache miss
	// builds its own evaluator and solves as its own pool task (the
	// pre-batching behavior, kept addressable for comparison benchmarks).
	DisableBatching bool
	// Eval configures the objective used for every solve. The zero value
	// is the paper's model.
	Eval wmn.EvalOptions
	// Store is an optional durable backing store under the LRU (the
	// cluster subsystem plugs its on-disk journal in here): lookups fall
	// through to it on LRU miss and computed payloads are published to it.
	// nil means in-memory caching only.
	Store ResultStore
	// NodeID is this replica's cluster identity; when non-empty, job IDs
	// are prefixed "<NodeID>-" so any replica can route a job handle back
	// to the replica that owns it. Empty (the default) keeps the
	// single-node "job-%08d" format.
	NodeID string
}

// DefaultConfig returns the serving defaults used by `wmnplace serve`.
func DefaultConfig() Config {
	return Config{CacheSize: 256}
}

func (c Config) withDefaults() Config {
	if c.SyncRouters == 0 {
		c.SyncRouters = 128
	}
	if c.MaxRouters == 0 {
		c.MaxRouters = 4096
	}
	if c.MaxClients == 0 {
		c.MaxClients = 262144
	}
	if c.MaxPendingJobs == 0 {
		c.MaxPendingJobs = 256
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchMaxWait == 0 {
		c.BatchMaxWait = 2 * time.Millisecond
	}
	return c
}

// Server is the placement service: an http.Handler wiring the solver
// registry, the result cache, the request batcher and the async job queue
// together. Create one with New and release its worker pool with Close.
type Server struct {
	cfg     Config
	cache   *Cache
	pool    *workerPool
	jobs    *jobQueue
	batch   *batcher // nil when DisableBatching
	metrics *metricsAggregator
	mux     *http.ServeMux
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheSize),
		pool:    newWorkerPool(cfg.Workers),
		jobs:    newJobQueue(cfg.MaxPendingJobs, cfg.NodeID),
		metrics: &metricsAggregator{},
	}
	if !cfg.DisableBatching {
		s.batch = newBatcher(cfg, s.cache, s.metrics, s.pool)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close flushes the batcher's pending batches onto the worker pool,
// closes the pool (every queued solve runs and delivers to its waiters),
// and then waits for every async job to finish. The server must not
// receive requests afterwards; a cache miss that still arrives fails with
// errServerClosed (503).
func (s *Server) Close() {
	if s.batch != nil {
		s.batch.close()
	}
	s.pool.close()
	s.jobs.wait()
}

// errServerClosed fails a solve that reaches the worker pool after Close.
var errServerClosed = errors.New("server closed")

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Metrics returns a consistent snapshot of the request telemetry — the
// same payload GET /v1/metrics serves.
func (s *Server) Metrics() MetricsSnapshot { return s.metrics.snapshot() }

// RecordForwarded counts one request this replica dispatched to the
// owning peer (and whether the dispatch failed), for the cluster front
// door — forwarded requests never reach this replica's solve path, so
// nothing else records them here.
func (s *Server) RecordForwarded(failed bool) { s.metrics.recordForwarded(failed) }

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Solver is a spec string, e.g. "ga:init=HotSpot,generations=800,pop=64"
	// or just "search" for all-default parameters.
	Solver Spec `json:"solver"`
	// Seed drives every random stream of the solve; identical requests
	// with identical seeds return byte-identical results.
	Seed uint64 `json:"seed"`
	// Instance embeds the problem to solve; Generate asks the server to
	// generate one instead. Exactly one of the two must be set.
	Instance *wmn.Instance  `json:"instance,omitempty"`
	Generate *wmn.GenConfig `json:"generate,omitempty"`
	// Mode selects the execution path: "auto" (default — synchronous up
	// to the server's router threshold, async job handle above), "sync"
	// or "async".
	Mode string `json:"mode,omitempty"`
	// DeadlineMs, when positive, bounds the solve to that many
	// milliseconds from admission. A solver past the deadline stops at its
	// next phase boundary and returns the incumbent best as a normal
	// result with truncated=true — never an error. Deadlines never perturb
	// determinism (they only pick which deterministic phase boundary the
	// run stops at), and truncated results are never cached.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
}

// SolveResult is the payload of a completed solve: the "result" field of a
// synchronous 200 body and of a finished job view. For identical
// (instance, spec, seed) triples these bytes are identical on every
// request path — batched, direct, deduplicated or replayed from cache.
type SolveResult struct {
	Solver       Spec         `json:"solver"`
	Seed         uint64       `json:"seed"`
	Instance     string       `json:"instance"`
	InstanceHash string       `json:"instanceHash"`
	Metrics      wmn.Metrics  `json:"metrics"`
	Solution     wmn.Solution `json:"solution"`
	// Evaluations and Anytime report the solve's cost and improvement
	// curve; both are keyed by evaluation counts, so they are part of the
	// deterministic payload.
	Evaluations int            `json:"evaluations"`
	Anytime     []AnytimePoint `json:"anytime"`
	// Portfolio describes the member race of a portfolio solve; absent for
	// every other kind.
	Portfolio *PortfolioReport `json:"portfolio,omitempty"`
	// Truncated marks a deadline-bounded incumbent (see
	// SolveRequest.DeadlineMs); such payloads are never cached.
	Truncated bool `json:"truncated,omitempty"`
}

// SolveResponse is the 200 body of a synchronous POST /v1/solve: the
// canonical solve payload plus this request's telemetry. Result stays
// byte-identical for identical request triples; RequestMetrics describes
// the path this particular request took (and so varies between repeats).
type SolveResponse struct {
	Result         json.RawMessage `json:"result"`
	RequestMetrics RequestMetrics  `json:"requestMetrics"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode cannot fail on the plain structs served here; a broken
	// connection surfaces at the transport layer instead.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": s.pool.workers,
		"jobs":    s.jobs.len(),
		"pending": s.jobs.pendingCount(),
		"cache":   s.cache.Stats(),
	})
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Catalog())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.snapshot())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	admitted := time.Now()
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Solver.Kind() == "" {
		writeError(w, http.StatusBadRequest, "missing solver spec (see GET /v1/solvers)")
		return
	}
	// Cross-parameter constraints (e.g. anneal's endtemp ≤ starttemp)
	// only surface when the solver is built; build it now so malformed
	// specs are client errors, not 500s or permanently failed jobs.
	if _, err := NewSolver(req.Solver); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	in, err := s.resolveInstance(&req)
	if err != nil {
		var tooBig *oversizedError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	async := false
	switch req.Mode {
	case "", "auto":
		async = in.NumRouters() > s.cfg.SyncRouters
	case "sync":
	case "async":
		async = true
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want auto, sync or async)", req.Mode)
		return
	}
	if req.DeadlineMs < 0 {
		writeError(w, http.StatusBadRequest, "deadlineMs must be positive, got %d", req.DeadlineMs)
		return
	}

	if async {
		// An async job outlives the HTTP request, so its deadline hangs off
		// Background, not the request context; the job closure owns cancel.
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if req.DeadlineMs > 0 {
			ctx, cancel = context.WithDeadline(ctx, admitted.Add(time.Duration(req.DeadlineMs)*time.Millisecond))
		}
		job, err := s.jobs.submit(req.Solver, req.Seed, func(publish func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
			defer cancel()
			return s.solveInstrumented(ctx, in, req.Solver, req.Seed, "async", admitted, publish)
		})
		if err != nil {
			cancel()
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, map[string]any{"job": job})
		return
	}

	// Plain synchronous solves run on Background: a dropped connection must
	// not truncate a computation other deduplicated waiters share.
	ctx := context.Background()
	if req.DeadlineMs > 0 {
		dctx, cancel := context.WithDeadline(r.Context(), admitted.Add(time.Duration(req.DeadlineMs)*time.Millisecond))
		defer cancel()
		ctx = dctx
	}
	payload, m, err := s.solveInstrumented(ctx, in, req.Solver, req.Seed, "sync", admitted, nil)
	if errors.Is(err, errServerClosed) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "solve: %v", err)
		return
	}
	w.Header().Set("X-Cache", m.CachePath)
	writeJSON(w, http.StatusOK, SolveResponse{Result: payload, RequestMetrics: m})
}

// maxRequestBytes bounds request bodies (413 past it); a 4096-router
// 262144-client instance encodes far below this. A variable only so tests
// can stream a body one byte past a small bound.
var maxRequestBytes int64 = 64 << 20

// oversizedError marks instances over the hard size limits (413, not 400).
type oversizedError struct{ msg string }

// Error returns the size-limit violation message.
func (e *oversizedError) Error() string { return e.msg }

// ResolveInstance produces the validated instance a request addresses —
// exported for the cluster front door, which must resolve (and hash) the
// instance to pick the owning replica before deciding whether to solve
// locally or forward.
func (s *Server) ResolveInstance(req *SolveRequest) (*wmn.Instance, error) {
	return s.resolveInstance(req)
}

// resolveInstance produces the validated instance a request addresses.
func (s *Server) resolveInstance(req *SolveRequest) (*wmn.Instance, error) {
	var in *wmn.Instance
	switch {
	case req.Instance != nil && req.Generate != nil:
		return nil, errors.New("request sets both instance and generate; want exactly one")
	case req.Instance != nil:
		if err := req.Instance.Validate(); err != nil {
			return nil, err
		}
		in = req.Instance
	case req.Generate != nil:
		gen, err := wmn.Generate(*req.Generate)
		if err != nil {
			return nil, err
		}
		in = gen
	default:
		return nil, errors.New("request sets neither instance nor generate; want exactly one")
	}
	if n := in.NumRouters(); n > s.cfg.MaxRouters {
		return nil, &oversizedError{msg: fmt.Sprintf("instance has %d routers, limit %d", n, s.cfg.MaxRouters)}
	}
	if n := in.NumClients(); n > s.cfg.MaxClients {
		return nil, &oversizedError{msg: fmt.Sprintf("instance has %d clients, limit %d", n, s.cfg.MaxClients)}
	}
	return in, nil
}

// nonNegNs clamps a duration to a non-negative nanosecond count. Dedup
// waiters can attach to a computation that started before they were
// admitted, which would otherwise report a negative queue wait.
func nonNegNs(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return d.Nanoseconds()
}

// solveInstrumented answers one (instance, spec, seed) triple and reports
// how: from the cache (CacheHit), from the durable backing store
// (CacheStoreHit), through the batcher (CacheMiss for the request that
// opened the computation, CacheDedupWait for requests that attached to
// it), or — when batching is disabled or shutting down — on the direct
// path, as a batch of one. The returned payload bytes are the canonical
// SolveResult document, identical for identical triples on every path; the
// RequestMetrics describe this request's trip and are folded into the
// server aggregate behind GET /v1/metrics. admitted is when the request
// entered the server, so async jobs account their pool queueing as queue
// wait. ctx bounds the solve (see SolveRequest.DeadlineMs): cached hits
// still serve — a completed result trivially satisfies any deadline — but
// deadline-bounded misses deduplicate under a key carrying the deadline
// instant, so an unbounded request never waits on a computation that might
// truncate, and truncated payloads are never published. onPhase, when
// non-nil, observes the solver's live progress (it sees nothing on the hit
// paths — there is no solver run to observe).
func (s *Server) solveInstrumented(ctx context.Context, in *wmn.Instance, spec Spec, seed uint64, mode string, admitted time.Time, onPhase func(localsearch.PhaseRecord)) ([]byte, RequestMetrics, error) {
	m := RequestMetrics{Mode: mode}
	hash := HashInstance(in)
	key := cacheKey(hash, spec, seed)
	dedupKey := key
	if dl, ok := ctx.Deadline(); ok {
		dedupKey = key + "|deadline=" + strconv.FormatInt(dl.UnixMilli(), 10)
	}
	if b, ok := s.cache.Get(key); ok {
		m.CachePath = CacheHit
		m.QueueWaitNs = nonNegNs(time.Since(admitted))
		m.TotalNs = m.QueueWaitNs
		s.metrics.record(m)
		return b, m, nil
	}
	if b, ok := lookupStored(s.cfg.Store, s.cache, key); ok {
		m.CachePath = CacheStoreHit
		m.QueueWaitNs = nonNegNs(time.Since(admitted))
		m.TotalNs = m.QueueWaitNs
		s.metrics.record(m)
		return b, m, nil
	}

	var comp *computation
	path := CacheMiss
	if s.batch != nil {
		comp, path = s.batch.enqueue(ctx, in, hash, dedupKey, key, spec, seed, onPhase)
	}
	if comp == nil {
		// Batching disabled or the batcher closed: a batch of one.
		comp = newComputation(ctx, dedupKey, key, hash, spec, seed, onPhase)
		if !s.pool.submit(func() { solveBatch(in, []*computation{comp}, s.cfg.Eval, s.cache, s.cfg.Store, nil) }) {
			return nil, m, errServerClosed
		}
		s.metrics.recordComputations(1)
	}
	<-comp.done
	if comp.err != nil {
		return nil, m, comp.err
	}
	m.CachePath = path
	m.BatchSize = comp.batchSize
	m.QueueWaitNs = nonNegNs(comp.runStart.Sub(admitted))
	m.BatchBuildNs = comp.buildNs
	m.SolveNs = comp.solveNs
	m.TotalNs = nonNegNs(time.Since(admitted))
	s.metrics.record(m)
	return comp.payload, m, nil
}
