package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"strings"

	"meshplace/internal/cluster"
	"meshplace/internal/server"
)

// runServe starts the placement service: every solver of the registry
// behind POST /v1/solve, with async job handles for large instances and an
// LRU result cache for repeated seeded requests. With -peers it becomes
// one replica of a sharded cluster: solves route by instance hash to the
// owning replica, -journal persists results across restarts, and -quota
// rate-limits each API key.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "size of the one worker pool that runs every solve, sync or async (0 = one per CPU)")
	cache := fs.Int("cache", 256, "result-cache capacity in entries (0 disables)")
	batch := fs.Int("batch", 0, "max computations coalesced per batch (0 = default)")
	batchWait := fs.Duration("batchwait", 0, "max wait before a partial batch flushes (0 = default)")
	noBatch := fs.Bool("nobatch", false, "disable request batching (solve each request directly)")
	peers := fs.String("peers", "", "comma-separated base URLs of the full replica set, including this one (enables cluster mode)")
	self := fs.String("self", "", "this replica's base URL as it appears in -peers (default http://<addr>)")
	journal := fs.String("journal", "", "append-only result journal path, replayed on startup (cluster mode)")
	quota := fs.String("quota", "", "per-key solve quota RATE[:BURST], e.g. 10 or 0.5:3 (cluster mode; empty disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.DefaultConfig()
	cfg.Workers = *workers
	cfg.CacheSize = *cache
	cfg.BatchSize = *batch
	cfg.BatchMaxWait = *batchWait
	cfg.DisableBatching = *noBatch

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	if *peers == "" && *journal == "" && *quota == "" {
		srv := server.New(cfg)
		defer srv.Close()
		fmt.Printf("wmnplace: serving on http://%s (solvers: %v)\n", ln.Addr(), server.Kinds())
		return http.Serve(ln, srv)
	}

	quotaCfg, err := cluster.ParseQuota(*quota)
	if err != nil {
		return err
	}
	selfURL := *self
	if selfURL == "" {
		selfURL = "http://" + ln.Addr().String()
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	node, err := cluster.New(cluster.Config{
		SelfURL:     selfURL,
		Peers:       peerList,
		JournalPath: *journal,
		Quota:       quotaCfg,
		Server:      cfg,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Printf("wmnplace: replica %s serving on http://%s (peers: %d, journal: %q, quota: %v)\n",
		node.NodeID(), ln.Addr(), len(peerList), *journal, quotaCfg.Enabled())
	return http.Serve(ln, node)
}
