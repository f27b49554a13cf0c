package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"meshplace/internal/localsearch"
	"meshplace/internal/wmn"
)

// computation is one distinct (instance hash, spec, seed) triple being
// solved once on behalf of every request that deduplicated onto it. done
// is closed exactly once, after every other field has been written; waiters
// must not read any field before receiving from done. Identical concurrent
// requests therefore share one solver run and all observe the same bytes.
//
// key is the dedup/inflight key: for deadline-bounded requests it carries
// the deadline instant, so plain requests never attach to a computation
// that might truncate. cacheKey is the (instance, spec, seed) cache key the
// payload publishes under — only when the solve ran to completion.
type computation struct {
	ctx      context.Context
	key      string
	cacheKey string
	hash     string
	spec     Spec
	seed     uint64
	done     chan struct{}

	// pendingIn points at the queued batch the computation sits in; nil
	// once that batch started on a worker. Guarded by batcher.mu.
	pendingIn *batch

	// Result and telemetry, written by run before done closes.
	payload   []byte
	truncated bool
	err       error
	runStart  time.Time
	buildNs   int64
	solveNs   int64
	batchSize int

	// hooks are the live-progress consumers of every request coalesced onto
	// this computation (async jobs streaming SSE). Guarded by hookMu: a
	// dedup attach can add a hook while the solve is already running.
	hookMu sync.Mutex
	hooks  []func(localsearch.PhaseRecord)
}

// newComputation opens a computation with its first progress hook.
func newComputation(ctx context.Context, key, cacheKey, hash string, spec Spec, seed uint64, onPhase func(localsearch.PhaseRecord)) *computation {
	c := &computation{ctx: ctx, key: key, cacheKey: cacheKey, hash: hash, spec: spec, seed: seed, done: make(chan struct{})}
	c.addHook(onPhase)
	return c
}

// addHook attaches one progress consumer; nil hooks are ignored.
func (c *computation) addHook(fn func(localsearch.PhaseRecord)) {
	if fn == nil {
		return
	}
	c.hookMu.Lock()
	c.hooks = append(c.hooks, fn)
	c.hookMu.Unlock()
}

// emit fans one solver record out to every attached hook. Called from the
// solving goroutine; the snapshot under hookMu keeps late attaches safe.
func (c *computation) emit(rec localsearch.PhaseRecord) {
	c.hookMu.Lock()
	hooks := append(make([]func(localsearch.PhaseRecord), 0, len(c.hooks)), c.hooks...)
	c.hookMu.Unlock()
	for _, fn := range hooks {
		fn(rec)
	}
}

// batch is one pool task: every distinct computation on one instance hash
// coalesced while the task waited for a worker, solved together on one
// evaluator.
type batch struct {
	hash string
	in   *wmn.Instance
	// comps are the distinct computations; requests counts every request
	// coalesced into the batch, including dedup attaches, and is what
	// BatchSize bounds.
	comps    []*computation
	requests int
}

// batcher coalesces concurrent solves by instance hash. A request that
// misses the cache enqueues here: if an identical (instance hash, spec,
// seed) computation is already queued or running it attaches as a waiter
// (CacheDedupWait) and the work runs exactly once; otherwise it joins the
// open batch for its instance hash, or opens one and submits it to the
// server's worker pool at once (CacheMiss). The batcher is work-conserving:
// a batch starts the moment a worker is free, so requests coalesce only
// while every worker is busy. A batch closes to joiners when it starts or
// when it has coalesced BatchSize requests, whichever comes first.
//
// Every batch solves on one wmn.Evaluator (the spatial client index every
// solver's IncrementalEvaluator wraps). An Evaluator is immutable after
// NewEvaluator, so the batcher remembers the last one it built and hands it
// to every later batch on the same instance hash, concurrently running ones
// included.
type batcher struct {
	batchSize int
	evalOpts  wmn.EvalOptions
	cache     *Cache
	store     ResultStore
	agg       *metricsAggregator
	pool      *workerPool

	mu       sync.Mutex
	closed   bool
	inflight map[string]*computation // by dedup key, queued + running
	pending  map[string]*batch       // by instance hash: queued, below BatchSize
	lastHash string                  // instance hash of lastEval
	lastEval *wmn.Evaluator
}

func newBatcher(cfg Config, cache *Cache, agg *metricsAggregator, pool *workerPool) *batcher {
	return &batcher{
		batchSize: cfg.BatchSize,
		evalOpts:  cfg.Eval,
		cache:     cache,
		store:     cfg.Store,
		agg:       agg,
		pool:      pool,
		inflight:  map[string]*computation{},
		pending:   map[string]*batch{},
	}
}

// enqueue admits one cache-missed request and returns the computation to
// wait on plus the cache path taken (CacheMiss for the request that opened
// the computation, CacheDedupWait for every request that attached to it).
// key is the dedup key, cacheKey the publish key; ctx bounds the solve and
// is shared by everyone who deduplicates onto the computation (deadline
// requests carry the deadline in their dedup key, so sharers agree on it).
// onPhase, when non-nil, receives the computation's live solver progress
// (shared with every other request coalesced onto it). After close, or
// when the pool no longer accepts tasks, it returns a nil computation and
// the caller solves directly.
func (b *batcher) enqueue(ctx context.Context, in *wmn.Instance, hash, key, cacheKey string, spec Spec, seed uint64, onPhase func(localsearch.PhaseRecord)) (*computation, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.inflight[key]; ok {
		c.addHook(onPhase)
		// A dedup attach counts toward its queued batch's BatchSize.
		if bt := c.pendingIn; bt != nil {
			b.countLocked(bt)
		}
		return c, CacheDedupWait
	}
	if b.closed {
		return nil, ""
	}
	bt := b.pending[hash]
	if bt == nil {
		bt = &batch{hash: hash, in: in}
		// The task waits on b.mu, held here, until bt is filled in.
		if !b.pool.submit(func() { b.run(bt) }) {
			return nil, ""
		}
		b.pending[hash] = bt
	}
	c := newComputation(ctx, key, cacheKey, hash, spec, seed, onPhase)
	b.inflight[key] = c
	bt.comps = append(bt.comps, c)
	c.pendingIn = bt
	b.countLocked(bt)
	return c, CacheMiss
}

// countLocked counts one more request into a queued batch and closes it to
// joiners once it holds BatchSize of them; it stays queued. Requires b.mu.
func (b *batcher) countLocked(bt *batch) {
	bt.requests++
	if bt.requests >= b.batchSize && b.pending[bt.hash] == bt {
		delete(b.pending, bt.hash)
	}
}

// run is a batch's pool task. Its first act closes the batch to joiners
// and records it; then every computation is solved (see solveBatch). Each
// computation leaves inflight after the cache holds its payload and before
// its waiters wake, so a request always finds either the inflight
// computation or the cached bytes — never a gap — and a request admitted
// after an answer went out never attaches to the finished computation.
func (b *batcher) run(bt *batch) {
	b.mu.Lock()
	if b.pending[bt.hash] == bt {
		delete(b.pending, bt.hash)
	}
	for _, c := range bt.comps {
		c.pendingIn = nil
	}
	b.agg.recordBatch(len(bt.comps), bt.requests >= b.batchSize)
	b.mu.Unlock()
	build := func() (*wmn.Evaluator, error) { return b.evaluator(bt.hash, bt.in) }
	solveBatch(build, bt.comps, b.cache, b.store, func(c *computation) {
		b.mu.Lock()
		delete(b.inflight, c.key)
		b.mu.Unlock()
	})
}

// evaluator returns the remembered evaluator when hash matches the last
// batch's instance, or builds one and remembers it in place of the last.
// The build runs outside b.mu; a failed build is never remembered.
func (b *batcher) evaluator(hash string, in *wmn.Instance) (*wmn.Evaluator, error) {
	b.mu.Lock()
	if b.lastHash == hash {
		eval := b.lastEval
		b.mu.Unlock()
		return eval, nil
	}
	b.mu.Unlock()
	eval, err := wmn.NewEvaluator(in, b.evalOpts)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.lastHash, b.lastEval = hash, eval
	b.mu.Unlock()
	return eval, nil
}

// solveBatch is one pool task: one evaluator, from build, shared by every
// computation, then each computation solved and published in order
// (deterministic, and the fan-out is across batches on the pool, not
// within one). Results reach waiters by closing each computation's done
// channel, right after release (when non-nil) sees it. A direct solve is a
// batch of one.
func solveBatch(build func() (*wmn.Evaluator, error), comps []*computation, cache *Cache, store ResultStore, release func(*computation)) {
	start := time.Now()
	eval, evalErr := build()
	buildNs := time.Since(start).Nanoseconds()
	for _, c := range comps {
		c.runStart = start
		c.batchSize = len(comps)
		c.buildNs = buildNs
		if evalErr != nil {
			c.err = evalErr
		} else {
			solveStart := time.Now()
			c.payload, c.truncated, c.err = solvePayload(c.ctx, eval, c.hash, c.spec, c.seed, c.emit)
			c.solveNs = time.Since(solveStart).Nanoseconds()
			// Truncated payloads are a deadline's incumbent, not the triple's
			// deterministic result — publishing one would poison the cache for
			// every future unbounded request.
			if c.err == nil && !c.truncated {
				publishResult(cache, store, c.cacheKey, c.payload)
			}
		}
		if release != nil {
			release(c)
		}
		close(c.done)
	}
}

// close rejects further enqueues. Every batch already opened is a queued
// pool task: Server.Close closes the pool next, which runs every queued
// task, so every waiter attached before close receives its result and
// shutdown leaks neither goroutines nor waiters.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// solvePayload answers one (instance, spec, seed) triple on a prebuilt
// evaluator and marshals the canonical SolveResult payload — the bytes the
// cache stores and every response path serves, identical for identical
// triples whether the solve was batched, direct or replayed from cache.
// ctx bounds the solve; the returned bool reports truncation, and a
// truncated payload must not be cached (it is the deadline's incumbent,
// not the triple's deterministic result). onPhase, when non-nil, observes
// the solver's live progress; it draws from no random stream, so it cannot
// perturb the payload.
func solvePayload(ctx context.Context, eval *wmn.Evaluator, hash string, spec Spec, seed uint64, onPhase func(localsearch.PhaseRecord)) ([]byte, bool, error) {
	sv, err := NewSolver(spec)
	if err != nil {
		return nil, false, err
	}
	rep, err := sv.(TracedSolver).SolveTraced(ctx, eval, seed, onPhase)
	if err != nil {
		return nil, false, err
	}
	payload, err := json.Marshal(SolveResult{
		Solver:       spec,
		Seed:         seed,
		Instance:     eval.Instance().Name,
		InstanceHash: hash,
		Metrics:      rep.Metrics,
		Solution:     rep.Solution,
		Evaluations:  rep.Evaluations,
		Anytime:      rep.Anytime,
		Portfolio:    rep.Portfolio,
		Truncated:    rep.Truncated,
	})
	return payload, rep.Truncated, err
}
