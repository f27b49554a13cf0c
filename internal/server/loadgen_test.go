package server

import (
	"bytes"
	"encoding/csv"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startLoadTarget runs a Server behind a real TCP listener so loadgen runs
// exercise the full HTTP path.
func startLoadTarget(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func mustParseSpec(t *testing.T, s string) Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLoadgenReportAccounting runs a closed-loop count-bounded load and
// checks the report's internal consistency: request totals, cache-path mix,
// latency ordering, CSV row count, and agreement with the server snapshot.
func TestLoadgenReportAccounting(t *testing.T) {
	srv, ts := startLoadTarget(t, Config{CacheSize: 32})
	var csvBuf bytes.Buffer
	report, err := RunLoadgen(LoadgenConfig{
		BaseURL:     ts.URL,
		Spec:        mustParseSpec(t, "adhoc"),
		Instance:    testInstance(t),
		Seeds:       3,
		Requests:    60,
		Concurrency: 8,
		Client:      ts.Client(),
		CSV:         &csvBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 60 || report.Errors != 0 {
		t.Fatalf("report = %d requests / %d errors, want 60 / 0", report.Requests, report.Errors)
	}
	if got := report.Hits + report.DedupWaits + report.Misses; got != 60 {
		t.Errorf("cache paths sum to %d, want 60", got)
	}
	// 3 distinct seeds: at least one non-hit each, and with the cache on the
	// bulk of the run hits.
	if report.Misses < 3 || report.Hits == 0 {
		t.Errorf("path mix hits=%d dedup=%d misses=%d looks wrong for 3 seeds + cache",
			report.Hits, report.DedupWaits, report.Misses)
	}
	if report.LatencyP50Ns <= 0 || report.LatencyP99Ns < report.LatencyP50Ns ||
		report.LatencyMaxNs < report.LatencyP99Ns {
		t.Errorf("latency quantiles out of order: p50=%d p99=%d max=%d",
			report.LatencyP50Ns, report.LatencyP99Ns, report.LatencyMaxNs)
	}
	if report.AchievedRPS <= 0 || report.DurationNs <= 0 {
		t.Errorf("throughput unset: rps=%f duration=%d", report.AchievedRPS, report.DurationNs)
	}

	// The embedded server snapshot covers the same 60 requests.
	if report.Server.Requests != 60 || report.Server.Sync != 60 {
		t.Errorf("server snapshot requests=%d sync=%d, want 60/60", report.Server.Requests, report.Server.Sync)
	}
	if int(report.Server.CacheHits) != report.Hits || int(report.Server.CacheMiss) != report.Misses {
		t.Errorf("client/server path counts disagree: client %d/%d, server %d/%d",
			report.Hits, report.Misses, report.Server.CacheHits, report.Server.CacheMiss)
	}
	if snap := srv.Metrics(); snap.Requests != 60 {
		t.Errorf("direct snapshot has %d requests", snap.Requests)
	}

	// CSV: header + one row per successful request, rows matching the header
	// width and known modes.
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 61 {
		t.Fatalf("CSV has %d rows, want 61 (header + 60)", len(rows))
	}
	if strings.Join(rows[0], ",") != strings.Join(RequestMetricsCSVHeader(), ",") {
		t.Errorf("CSV header = %v", rows[0])
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) || row[0] != "sync" {
			t.Fatalf("CSV row %d malformed: %v", i+1, row)
		}
	}
}

// TestLoadgenMaxDedupBurst is the acceptance check driven over real HTTP: 64
// concurrent identical requests (Seeds 1, cache off, BatchSize 64), sent
// while every worker is held, cost the server exactly one computation.
func TestLoadgenMaxDedupBurst(t *testing.T) {
	srv, ts := startLoadTarget(t, Config{CacheSize: 0, BatchSize: 64, Workers: 4})
	hold := holdWorkers(t, srv)
	type result struct {
		report *LoadgenReport
		err    error
	}
	done := make(chan result)
	go func() {
		report, err := RunLoadgen(LoadgenConfig{
			BaseURL:     ts.URL,
			Spec:        mustParseSpec(t, "search:phases=4,neighbors=4"),
			Instance:    testInstance(t),
			Seeds:       1,
			Requests:    64,
			Concurrency: 64,
			Client:      ts.Client(),
		})
		done <- result{report, err}
	}()
	waitQueuedRequests(t, srv, 64)
	hold.releaseAll()
	res := <-done
	report, err := res.report, res.err
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("%d errors", report.Errors)
	}
	if report.Server.Computations != 1 {
		t.Errorf("computations = %d, want exactly 1 for 64 identical requests", report.Server.Computations)
	}
	if report.Misses != 1 || report.DedupWaits != 63 {
		t.Errorf("path mix = %d miss / %d dedup-wait, want 1 / 63", report.Misses, report.DedupWaits)
	}
	if report.Server.Batches != 1 || report.Server.BatchFlushSize != 1 {
		t.Errorf("server ran %d batches (%d full), want one full batch",
			report.Server.Batches, report.Server.BatchFlushSize)
	}
}

// TestLoadgenDurationBound smoke-tests the wall-time-bounded open-loop mode.
func TestLoadgenDurationBound(t *testing.T) {
	_, ts := startLoadTarget(t, Config{CacheSize: 8})
	report, err := RunLoadgen(LoadgenConfig{
		BaseURL:     ts.URL,
		Spec:        mustParseSpec(t, "adhoc"),
		Instance:    testInstance(t),
		RPS:         200,
		Duration:    150 * time.Millisecond,
		Concurrency: 4,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 || report.Errors != 0 {
		t.Fatalf("report = %d requests / %d errors", report.Requests, report.Errors)
	}
	var rendered bytes.Buffer
	report.Render(&rendered)
	for _, want := range []string{"requests", "cache paths", "latency", "server solve"} {
		if !strings.Contains(rendered.String(), want) {
			t.Errorf("rendered report missing %q:\n%s", want, rendered.String())
		}
	}
}

// TestLoadgenDurationAccounting pins the duration-bounded pacer after the
// per-ticket time.Now hoist (the deadline is now a timer channel polled
// with a non-blocking select): the closed-loop run still terminates at
// the deadline, runs at least as long as the bound, and every issued
// request lands in exactly one accounting bucket, agreeing with the
// server's own request counter.
func TestLoadgenDurationAccounting(t *testing.T) {
	const bound = 120 * time.Millisecond
	_, ts := startLoadTarget(t, Config{CacheSize: 8})
	report, err := RunLoadgen(LoadgenConfig{
		BaseURL:     ts.URL,
		Spec:        mustParseSpec(t, "adhoc"),
		Instance:    testInstance(t),
		Duration:    bound,
		Concurrency: 4,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("closed-loop duration run issued no requests")
	}
	if report.DurationNs < int64(bound) {
		t.Errorf("run lasted %dns, shorter than the %dns bound", report.DurationNs, int64(bound))
	}
	paths := report.Hits + report.StoreHits + report.DedupWaits + report.Misses
	if report.Requests != paths+report.Errors {
		t.Errorf("accounting leak: %d requests != %d path-counted + %d errors",
			report.Requests, paths, report.Errors)
	}
	if int(report.Server.Requests) != report.Requests-report.Errors {
		t.Errorf("server saw %d requests, client succeeded %d",
			report.Server.Requests, report.Requests-report.Errors)
	}
}

// TestLoadgenRoundRobinTargets spreads a multi-target run across two
// servers: the ticket index picks the target, so an even request count
// splits exactly in half, and the report carries one snapshot per target.
func TestLoadgenRoundRobinTargets(t *testing.T) {
	srvA, tsA := startLoadTarget(t, Config{CacheSize: 8})
	srvB, tsB := startLoadTarget(t, Config{CacheSize: 8})
	report, err := RunLoadgen(LoadgenConfig{
		BaseURLs:    []string{tsA.URL, tsB.URL},
		Spec:        mustParseSpec(t, "adhoc"),
		Instance:    testInstance(t),
		Requests:    8,
		Concurrency: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests != 8 || report.Errors != 0 {
		t.Fatalf("report = %d requests / %d errors, want 8 / 0", report.Requests, report.Errors)
	}
	if a, b := srvA.Metrics().Requests, srvB.Metrics().Requests; a != 4 || b != 4 {
		t.Errorf("round-robin split %d/%d, want 4/4", a, b)
	}
	if len(report.Targets) != 2 {
		t.Fatalf("report has %d target snapshots, want 2", len(report.Targets))
	}
	if report.Targets[0].Requests != 4 || report.Targets[1].Requests != 4 {
		t.Errorf("target snapshots report %d/%d requests, want 4/4",
			report.Targets[0].Requests, report.Targets[1].Requests)
	}
	if report.Server.Requests != report.Targets[0].Requests {
		t.Errorf("Server snapshot (%d requests) is not the first target's (%d)",
			report.Server.Requests, report.Targets[0].Requests)
	}
}

// TestLoadgenValidation pins the config error paths.
func TestLoadgenValidation(t *testing.T) {
	in := testInstance(t)
	spec := mustParseSpec(t, "adhoc")
	cases := []struct {
		name string
		cfg  LoadgenConfig
	}{
		{"no base url", LoadgenConfig{Spec: spec, Instance: in, Requests: 1}},
		{"no instance", LoadgenConfig{BaseURL: "http://x", Spec: spec, Requests: 1}},
		{"no spec", LoadgenConfig{BaseURL: "http://x", Instance: in, Requests: 1}},
		{"no bound", LoadgenConfig{BaseURL: "http://x", Spec: spec, Instance: in}},
	}
	for _, tc := range cases {
		if _, err := RunLoadgen(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
