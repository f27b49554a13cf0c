package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// runLoadgen drives a throughput/latency load run against the placement
// server and prints the report: client-observed latency quantiles, cache-path
// mix, and the server's own /v1/metrics telemetry. With -addr it targets a
// running server; without it, it starts an in-process server on a loopback
// port so a single command measures the serving layer end to end.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "target address host:port, or a comma-separated list spread round-robin (empty: run an in-process server)")
	specFlag := fs.String("spec", "adhoc:method=Near", "solver spec driven on every request")
	scenario := fs.String("scenario", "v1-base-hotspots", "corpus scenario embedded in every request")
	corpusSeed := fs.Uint64("corpus-seed", 1, "corpus seed the scenario is materialized from")
	rps := fs.Float64("rps", 0, "offered request rate (0 = closed loop)")
	duration := fs.Duration("duration", 5*time.Second, "wall-time bound, used when -requests is 0")
	requests := fs.Int("requests", 0, "request-count bound (0 = bound by -duration)")
	concurrency := fs.Int("concurrency", 64, "in-flight requests")
	seeds := fs.Int("seeds", 1, "distinct solver seeds cycled across requests (1 = maximal dedup)")
	seed := fs.Uint64("seed", 1, "first solver seed of the cycle")
	csvPath := fs.String("csv", "", "write per-request metrics rows to this CSV file")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	workers := fs.Int("workers", 0, "in-process server: solve workers (0 = one per CPU)")
	batch := fs.Int("batch", 0, "in-process server: batch size (0 = server default)")
	noCache := fs.Bool("nocache", false, "in-process server: disable the result cache")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := server.ParseSpec(*specFlag)
	if err != nil {
		return err
	}
	in, err := scenarioInstance(*scenario, *corpusSeed)
	if err != nil {
		return err
	}

	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, "http://"+a)
		}
	}
	if len(targets) == 0 {
		cfg := server.DefaultConfig()
		cfg.Workers = *workers
		cfg.BatchSize = *batch
		if *noCache {
			cfg.CacheSize = 0
		}
		srv := server.New(cfg)
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		targets = []string{"http://" + ln.Addr().String()}
		fmt.Fprintf(os.Stderr, "wmnplace: loadgen target in-process server on %s\n", ln.Addr())
	}

	cfg := server.LoadgenConfig{
		BaseURLs:    targets,
		Spec:        spec,
		Instance:    in,
		Seeds:       *seeds,
		BaseSeed:    *seed,
		RPS:         *rps,
		Requests:    *requests,
		Duration:    *duration,
		Concurrency: *concurrency,
	}
	if *requests > 0 {
		cfg.Duration = 0
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.CSV = f
	}

	report, err := server.RunLoadgen(cfg)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Printf("loadgen: %s seeds=%d against %s\n", spec, *seeds, strings.Join(targets, ", "))
	report.Render(os.Stdout)
	return nil
}

// scenarioInstance materializes one named corpus scenario as an instance.
func scenarioInstance(name string, corpusSeed uint64) (*wmn.Instance, error) {
	for _, sc := range scenarios.Corpus(corpusSeed) {
		if sc.Name == name {
			return wmn.Generate(sc.Gen)
		}
	}
	var names []string
	for _, sc := range scenarios.Corpus(corpusSeed) {
		names = append(names, sc.Name)
	}
	return nil, fmt.Errorf("unknown scenario %q; corpus has %v", name, names)
}
