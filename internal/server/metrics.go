package server

import (
	"sort"
	"sync"
)

// Cache paths a request can take through the serving layer, reported in
// RequestMetrics.CachePath and the X-Cache response header.
const (
	// CacheHit answered the request from the LRU result cache.
	CacheHit = "hit"
	// CacheDedupWait attached the request to an identical in-flight
	// computation and waited for its result.
	CacheDedupWait = "dedup-wait"
	// CacheStoreHit answered the request from the durable backing store
	// (the cluster journal) after an LRU miss, promoting it into the LRU.
	CacheStoreHit = "store-hit"
	// CacheMiss computed the request (inside a batch when batching is on).
	CacheMiss = "miss"
)

// RequestMetrics is the flat per-request telemetry attached to every solve
// response: the 200 body of a synchronous POST /v1/solve carries it next to
// the result, and finished jobs carry it in their GET /v1/jobs/{id} view.
// All durations are nanoseconds so rows aggregate with plain arithmetic;
// GET /v1/metrics serves the server-side aggregation (counts plus p50/p99
// per phase).
type RequestMetrics struct {
	// Mode is the execution path: "sync" or "async".
	Mode string `json:"mode"`
	// CachePath is how the result was obtained: CacheHit, CacheDedupWait
	// or CacheMiss.
	CachePath string `json:"cachePath"`
	// BatchSize is the number of distinct computations in the batch that
	// answered the request (1 on the unbatched path, 0 on a cache hit).
	BatchSize int `json:"batchSize"`
	// QueueWaitNs is the time the request spent waiting before its
	// computation started: queued behind other solves on the worker pool
	// (its batch coalesces requests only during that wait).
	QueueWaitNs int64 `json:"queueWaitNs"`
	// BatchBuildNs is the time spent building the batch's shared warm
	// evaluator (amortized identically onto every request of the batch);
	// near zero when the batch reused the previous batch's evaluator.
	BatchBuildNs int64 `json:"batchBuildNs"`
	// SolveNs is the time of the solver run that produced the result; for
	// dedup waiters it is the shared computation's solve time, for cache
	// hits zero.
	SolveNs int64 `json:"solveNs"`
	// TotalNs is the wall time from request admission to response payload.
	TotalNs int64 `json:"totalNs"`
}

// PhaseStats aggregates one request phase: how many samples were recorded
// and the p50/p99/max latency over the retained window.
type PhaseStats struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50Ns"`
	P99Ns int64 `json:"p99Ns"`
	MaxNs int64 `json:"maxNs"`
}

// MetricsSnapshot is the payload of GET /v1/metrics: monotonic request and
// batch counters plus per-phase latency aggregates. Counters only grow for
// the lifetime of a Server; the phase percentiles are computed over a
// bounded window of the most recent samples.
type MetricsSnapshot struct {
	// Request counters.
	Requests int64 `json:"requests"`
	Sync     int64 `json:"sync"`
	Async    int64 `json:"async"`
	// Cache-path counters (hit + storeHit + dedupWait + miss == requests).
	CacheHits  int64 `json:"cacheHits"`
	StoreHits  int64 `json:"storeHits"`
	CacheMiss  int64 `json:"cacheMisses"`
	DedupWaits int64 `json:"dedupWaits"`
	// Cluster counters: requests this replica forwarded to the owning peer,
	// and how many of those forwards failed (answered locally as fallback
	// or surfaced as a gateway error).
	Forwarded    int64 `json:"forwarded"`
	ForwardFails int64 `json:"forwardFails"`
	// Computations counts actual solver runs — the work the batcher's
	// dedup avoids repeating (computations ≤ misses’ share of requests).
	Computations int64 `json:"computations"`
	// Batches counts batches started; BatchFlushSize counts those that
	// closed to joiners at BatchSize while waiting for a worker.
	Batches        int64 `json:"batches"`
	BatchFlushSize int64 `json:"batchFlushSize"`
	// BatchFlushTimeout is always zero: a batch starts the moment a worker
	// is free and no timer flushes it. Kept because scrapers read it.
	BatchFlushTimeout int64 `json:"batchFlushTimeout"`
	// Per-phase latency aggregates.
	QueueWait  PhaseStats `json:"queueWait"`
	BatchBuild PhaseStats `json:"batchBuild"`
	Solve      PhaseStats `json:"solve"`
	Total      PhaseStats `json:"total"`
}

// phaseWindow bounds the samples retained per phase for the percentile
// estimates; the counters above stay exact regardless.
const phaseWindow = 4096

// phaseAgg accumulates one phase: an exact count plus a ring buffer of the
// most recent samples for percentiles.
type phaseAgg struct {
	count   int64
	samples []int64
	next    int
}

func (p *phaseAgg) add(ns int64) {
	p.count++
	if len(p.samples) < phaseWindow {
		p.samples = append(p.samples, ns)
		return
	}
	p.samples[p.next] = ns
	p.next = (p.next + 1) % phaseWindow
}

func (p *phaseAgg) stats() PhaseStats {
	st := PhaseStats{Count: p.count}
	if len(p.samples) == 0 {
		return st
	}
	sorted := append([]int64(nil), p.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	st.P50Ns = percentile(sorted, 50)
	st.P99Ns = percentile(sorted, 99)
	st.MaxNs = sorted[len(sorted)-1]
	return st
}

// percentile returns the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, pct int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// metricsAggregator is the server-side accumulator behind GET /v1/metrics.
// Safe for concurrent use.
type metricsAggregator struct {
	mu   sync.Mutex
	snap MetricsSnapshot // counter fields only; phase fields filled on snapshot
	qw   phaseAgg
	bb   phaseAgg
	sv   phaseAgg
	tot  phaseAgg
}

// record folds one finished request into the aggregate.
func (a *metricsAggregator) record(m RequestMetrics) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snap.Requests++
	switch m.Mode {
	case "async":
		a.snap.Async++
	default:
		a.snap.Sync++
	}
	switch m.CachePath {
	case CacheHit:
		a.snap.CacheHits++
	case CacheStoreHit:
		a.snap.StoreHits++
	case CacheDedupWait:
		a.snap.DedupWaits++
	default:
		a.snap.CacheMiss++
	}
	a.qw.add(m.QueueWaitNs)
	a.bb.add(m.BatchBuildNs)
	a.sv.add(m.SolveNs)
	a.tot.add(m.TotalNs)
}

// recordBatch folds one started batch into the aggregate; full reports
// whether it had reached BatchSize.
func (a *metricsAggregator) recordBatch(computations int, full bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snap.Batches++
	a.snap.Computations += int64(computations)
	if full {
		a.snap.BatchFlushSize++
	}
}

// recordComputations counts solver runs outside any batch (the unbatched
// fallback path).
func (a *metricsAggregator) recordComputations(n int) {
	a.mu.Lock()
	a.snap.Computations += int64(n)
	a.mu.Unlock()
}

// recordForwarded counts one request forwarded to the owning peer. The
// forwarded request itself is recorded by the replica that executes it;
// this replica only counts the dispatch (and its failure, if any).
func (a *metricsAggregator) recordForwarded(failed bool) {
	a.mu.Lock()
	a.snap.Forwarded++
	if failed {
		a.snap.ForwardFails++
	}
	a.mu.Unlock()
}

// snapshot returns a consistent copy with the phase aggregates filled in.
func (a *metricsAggregator) snapshot() MetricsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.snap
	out.QueueWait = a.qw.stats()
	out.BatchBuild = a.bb.stats()
	out.Solve = a.sv.stats()
	out.Total = a.tot.stats()
	return out
}
