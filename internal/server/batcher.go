package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"meshplace/internal/localsearch"
	"meshplace/internal/wmn"
)

// flushCause records why a pending batch was handed to the worker pool,
// for the flush counters of MetricsSnapshot.
type flushCause int

const (
	// flushSize: the batch coalesced BatchSize requests before the wait
	// window expired.
	flushSize flushCause = iota
	// flushTimeout: BatchMaxWait expired with the batch below BatchSize.
	flushTimeout
	// flushClose: server shutdown drained the batch early.
	flushClose
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

	// pendingIn points at the batch the computation still sits in; nil once
	// the batch flushed. Guarded by batcher.mu.
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

// batch is the pending coalescing window for one instance hash: every
// distinct computation on that instance collected since the first request,
// flushed together so they share one warm evaluator build.
type batch struct {
	hash string
	in   *wmn.Instance
	gen  uint64 // distinguishes reuse of the same hash across windows
	// comps are the distinct computations; requests counts every request
	// coalesced into this window, including dedup attaches, and is what
	// BatchSize bounds.
	comps    []*computation
	requests int
	timer    *time.Timer
}

// batcher coalesces concurrent solves by instance hash. A request that
// misses the cache enqueues here: if an identical (instance hash, spec,
// seed) computation is already pending or running it attaches as a waiter
// (CacheDedupWait) and the work runs exactly once; otherwise it opens (or
// joins) the pending batch for its instance hash (CacheMiss). A batch
// flushes when it has coalesced BatchSize requests, when BatchMaxWait
// expires, or at shutdown — whichever comes first — and runs as one task on
// the server's worker pool, building one warm wmn.Evaluator (the spatial
// client index every solver's IncrementalEvaluator wraps) shared by every
// computation of the batch.
type batcher struct {
	batchSize int
	maxWait   time.Duration
	evalOpts  wmn.EvalOptions
	cache     *Cache
	store     ResultStore
	agg       *metricsAggregator
	pool      *workerPool

	mu       sync.Mutex
	closed   bool
	gen      uint64
	inflight map[string]*computation // by dedup key, pending + running
	pending  map[string]*batch       // by instance hash
}

func newBatcher(cfg Config, cache *Cache, agg *metricsAggregator, pool *workerPool) *batcher {
	return &batcher{
		batchSize: cfg.BatchSize,
		maxWait:   cfg.BatchMaxWait,
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
// (shared with every other request coalesced onto it). After close it
// returns a nil computation and the caller solves directly.
func (b *batcher) enqueue(ctx context.Context, in *wmn.Instance, hash, key, cacheKey string, spec Spec, seed uint64, onPhase func(localsearch.PhaseRecord)) (*computation, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.inflight[key]; ok {
		c.addHook(onPhase)
		// Identical request already pending or running: attach. A dedup
		// attach counts toward the batch's size trigger so a burst of
		// identical requests flushes as soon as BatchSize of them arrived
		// instead of stalling out the full wait window.
		if bt := c.pendingIn; bt != nil {
			bt.requests++
			if bt.requests >= b.batchSize {
				b.flushLocked(bt, flushSize)
			}
		}
		return c, CacheDedupWait
	}
	if b.closed {
		return nil, ""
	}
	c := newComputation(ctx, key, cacheKey, hash, spec, seed, onPhase)
	b.inflight[key] = c
	bt := b.pending[hash]
	if bt == nil {
		b.gen++
		bt = &batch{hash: hash, in: in, gen: b.gen}
		b.pending[hash] = bt
		gen := bt.gen
		bt.timer = time.AfterFunc(b.maxWait, func() { b.flushExpired(hash, gen) })
	}
	bt.comps = append(bt.comps, c)
	c.pendingIn = bt
	bt.requests++
	if bt.requests >= b.batchSize {
		b.flushLocked(bt, flushSize)
	}
	return c, CacheMiss
}

// flushExpired is the BatchMaxWait timer callback. The generation check
// makes a late-firing timer a no-op when its batch already flushed (and a
// new window opened under the same hash).
func (b *batcher) flushExpired(hash string, gen uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bt := b.pending[hash]
	if bt == nil || bt.gen != gen {
		return
	}
	b.flushLocked(bt, flushTimeout)
}

// flushLocked detaches the batch from the pending window and hands it to
// the pool. Requires b.mu held.
func (b *batcher) flushLocked(bt *batch, cause flushCause) {
	delete(b.pending, bt.hash)
	bt.timer.Stop()
	for _, c := range bt.comps {
		c.pendingIn = nil
	}
	b.agg.recordBatch(cause, len(bt.comps))
	in, comps := bt.in, bt.comps
	if !b.pool.submit(func() { b.run(in, comps) }) {
		// Pool already closed: fail the waiters rather than strand them on
		// a done channel nobody will close.
		for _, c := range comps {
			c.err = errServerClosed
			close(c.done)
			delete(b.inflight, c.key)
		}
	}
}

// run executes one flushed batch on a pool worker (see solveBatch). Each
// computation leaves inflight after the cache holds its payload and before
// its waiters wake, so a request always finds either the inflight
// computation or the cached bytes — never a gap — and a request admitted
// after an answer went out never attaches to the finished computation.
func (b *batcher) run(in *wmn.Instance, comps []*computation) {
	solveBatch(in, comps, b.evalOpts, b.cache, b.store, func(c *computation) {
		b.mu.Lock()
		delete(b.inflight, c.key)
		b.mu.Unlock()
	})
}

// solveBatch is one pool task: one warm evaluator build shared by every
// computation, then each computation solved and published in order
// (deterministic, and the fan-out is across batches on the pool, not
// within one). Results reach waiters by closing each computation's done
// channel, right after release (when non-nil) sees it. A direct solve is a
// batch of one.
func solveBatch(in *wmn.Instance, comps []*computation, opts wmn.EvalOptions, cache *Cache, store ResultStore, release func(*computation)) {
	start := time.Now()
	eval, evalErr := wmn.NewEvaluator(in, opts)
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

// close flushes every pending batch (flushClose) onto the server's pool
// and rejects further enqueues. Every waiter attached before close
// receives its result: Server.Close closes the pool next, which runs every
// flushed batch, so shutdown leaks neither goroutines nor waiters.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pending := make([]*batch, 0, len(b.pending))
	for _, bt := range b.pending {
		pending = append(pending, bt)
	}
	for _, bt := range pending {
		b.flushLocked(bt, flushClose)
	}
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
