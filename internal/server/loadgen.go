package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"meshplace/internal/wmn"
)

// LoadgenConfig drives RunLoadgen against a running placement server.
type LoadgenConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// BaseURLs, when non-empty, overrides BaseURL with a list of targets
	// the load is spread over round-robin — the way to drive a cluster of
	// replicas through every front door at once. The report's Server
	// snapshot then comes from the first target, with per-target
	// snapshots in Targets.
	BaseURLs []string
	// Spec is the solver driven on every request.
	Spec Spec
	// Instance is the problem embedded in every request.
	Instance *wmn.Instance
	// Seeds is the number of distinct seeds cycled round-robin across
	// requests: 1 (the default) makes every request identical — the
	// maximal-dedup load — while larger values spread the load over that
	// many distinct computations.
	Seeds int
	// BaseSeed is the first seed of the cycle.
	BaseSeed uint64
	// RPS is the offered request rate; 0 runs closed-loop, firing as fast
	// as Concurrency in-flight requests allow.
	RPS float64
	// Requests bounds the run by exact request count; when 0, Duration
	// bounds it by wall time instead. Exactly one must be positive.
	Requests int
	// Duration is the wall-time bound used when Requests is 0.
	Duration time.Duration
	// Concurrency is the number of in-flight requests (default 64).
	Concurrency int
	// Client overrides the HTTP client (default: a fresh http.Client).
	Client *http.Client
	// CSV, when set, receives one RequestMetrics row per completed request
	// (RequestMetricsCSVHeader order, header included).
	CSV io.Writer
}

// LoadgenReport is the outcome of one load run: client-observed counts and
// latency quantiles plus the server's own telemetry snapshot, fetched from
// GET /v1/metrics after the run.
type LoadgenReport struct {
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	DurationNs  int64   `json:"durationNs"`
	AchievedRPS float64 `json:"achievedRps"`
	// Cache-path counts as reported by the X-Cache header.
	Hits       int `json:"hits"`
	StoreHits  int `json:"storeHits"`
	DedupWaits int `json:"dedupWaits"`
	Misses     int `json:"misses"`
	// Client-observed end-to-end latency over all successful requests.
	LatencyP50Ns int64 `json:"latencyP50Ns"`
	LatencyP99Ns int64 `json:"latencyP99Ns"`
	LatencyMaxNs int64 `json:"latencyMaxNs"`
	// Server is the target's /v1/metrics snapshot after the run (the
	// first target's, under multi-target load).
	Server MetricsSnapshot `json:"server"`
	// Targets holds one post-run snapshot per target, in BaseURLs order;
	// nil for single-target runs.
	Targets []MetricsSnapshot `json:"targets,omitempty"`
}

// Render writes the report as a human-readable summary.
func (r *LoadgenReport) Render(w io.Writer) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "requests %d (errors %d) in %.2fs — %.1f req/s\n",
		r.Requests, r.Errors, float64(r.DurationNs)/1e9, r.AchievedRPS)
	fmt.Fprintf(w, "cache paths: %d hit / %d store-hit / %d dedup-wait / %d miss\n",
		r.Hits, r.StoreHits, r.DedupWaits, r.Misses)
	fmt.Fprintf(w, "latency: p50 %.2fms p99 %.2fms max %.2fms\n",
		ms(r.LatencyP50Ns), ms(r.LatencyP99Ns), ms(r.LatencyMaxNs))
	fmt.Fprintf(w, "server: %d computations for %d requests (%d batches, %d full)\n",
		r.Server.Computations, r.Server.Requests, r.Server.Batches, r.Server.BatchFlushSize)
	fmt.Fprintf(w, "server solve: p50 %.2fms p99 %.2fms; queue wait p99 %.2fms\n",
		ms(r.Server.Solve.P50Ns), ms(r.Server.Solve.P99Ns), ms(r.Server.QueueWait.P99Ns))
}

// RunLoadgen drives the configured request load at the target server and
// returns the report. Requests are synchronous solves of one fixed
// (instance, spec) pair with seeds cycled per LoadgenConfig.Seeds, so the
// dedup/batch behavior under test is controlled by the caller.
func RunLoadgen(cfg LoadgenConfig) (*LoadgenReport, error) {
	targets := cfg.BaseURLs
	if len(targets) == 0 {
		if cfg.BaseURL == "" {
			return nil, errors.New("loadgen: BaseURL is required")
		}
		targets = []string{cfg.BaseURL}
	}
	if cfg.Instance == nil {
		return nil, errors.New("loadgen: Instance is required")
	}
	if cfg.Spec.Kind() == "" {
		return nil, errors.New("loadgen: Spec is required")
	}
	if cfg.Requests <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("loadgen: one of Requests or Duration must be positive")
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 64
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}

	// Marshal one body per seed up front so the hot loop only does I/O.
	bodies := make([][]byte, cfg.Seeds)
	for i := range bodies {
		b, err := json.Marshal(SolveRequest{
			Solver:   cfg.Spec,
			Seed:     cfg.BaseSeed + uint64(i),
			Instance: cfg.Instance,
			Mode:     "sync",
		})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	var csvw *csv.Writer
	if cfg.CSV != nil {
		csvw = csv.NewWriter(cfg.CSV)
		if err := csvw.Write(RequestMetricsCSVHeader()); err != nil {
			return nil, err
		}
	}

	var (
		mu        sync.Mutex
		report    LoadgenReport
		latencies []int64
		csvErr    error
	)
	record := func(lat time.Duration, path string, m *RequestMetrics, failed bool) {
		mu.Lock()
		defer mu.Unlock()
		report.Requests++
		if failed {
			report.Errors++
			return
		}
		switch path {
		case CacheHit:
			report.Hits++
		case CacheStoreHit:
			report.StoreHits++
		case CacheDedupWait:
			report.DedupWaits++
		default:
			report.Misses++
		}
		latencies = append(latencies, lat.Nanoseconds())
		if csvw != nil && m != nil && csvErr == nil {
			csvErr = csvw.Write(m.CSVRow())
		}
	}

	// tickets paces the offered load: the pacer emits one ticket per
	// request (at the RPS interval, or back-to-back in closed-loop mode)
	// until the request-count or wall-time bound is hit; Concurrency
	// workers consume them.
	tickets := make(chan int)
	start := time.Now()
	go func() {
		defer close(tickets)
		var interval time.Duration
		if cfg.RPS > 0 {
			interval = time.Duration(float64(time.Second) / cfg.RPS)
		}
		// Duration-bounded runs used to call time.Now per ticket to test
		// the deadline; polling a timer channel with a non-blocking select
		// keeps the hot loop free of per-request clock syscalls.
		var expired <-chan time.Time
		if cfg.Requests <= 0 {
			timer := time.NewTimer(cfg.Duration)
			defer timer.Stop()
			expired = timer.C
		}
		for i := 0; cfg.Requests <= 0 || i < cfg.Requests; i++ {
			if expired != nil {
				select {
				case <-expired:
					return
				default:
				}
			}
			tickets <- i
			if interval > 0 {
				next := start.Add(time.Duration(i+1) * interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tickets {
				body := bodies[i%cfg.Seeds]
				// Ticket index also picks the target, so a multi-target
				// run spreads requests round-robin across the replicas.
				target := targets[i%len(targets)]
				t0 := time.Now()
				resp, err := client.Post(target+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					record(0, "", nil, true)
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					record(0, "", nil, true)
					continue
				}
				lat := time.Since(t0)
				var env SolveResponse
				if err := json.Unmarshal(data, &env); err != nil {
					record(0, "", nil, true)
					continue
				}
				record(lat, resp.Header.Get("X-Cache"), &env.RequestMetrics, false)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if csvw != nil {
		csvw.Flush()
		if csvErr == nil {
			csvErr = csvw.Error()
		}
		if csvErr != nil {
			return nil, fmt.Errorf("loadgen: csv: %w", csvErr)
		}
	}

	report.DurationNs = elapsed.Nanoseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		report.AchievedRPS = float64(report.Requests-report.Errors) / secs
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if len(latencies) > 0 {
		report.LatencyP50Ns = percentile(latencies, 50)
		report.LatencyP99Ns = percentile(latencies, 99)
		report.LatencyMaxNs = latencies[len(latencies)-1]
	}

	for i, target := range targets {
		snap, err := fetchMetrics(client, target)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			report.Server = snap
		}
		if len(targets) > 1 {
			report.Targets = append(report.Targets, snap)
		}
	}
	return &report, nil
}

// fetchMetrics reads the target's GET /v1/metrics snapshot.
func fetchMetrics(client *http.Client, baseURL string) (MetricsSnapshot, error) {
	resp, err := client.Get(baseURL + "/v1/metrics")
	if err != nil {
		return MetricsSnapshot{}, fmt.Errorf("loadgen: fetch metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return MetricsSnapshot{}, fmt.Errorf("loadgen: GET /v1/metrics: %s", resp.Status)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return MetricsSnapshot{}, fmt.Errorf("loadgen: decode metrics: %w", err)
	}
	return snap, nil
}
