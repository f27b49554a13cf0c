package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"meshplace/internal/cluster"
	"meshplace/internal/server"
)

// Connection bounds of the serve command's HTTP server. A client has
// serveReadHeaderTimeout to send its request headers, and a kept-alive
// connection closes after serveIdleTimeout without a request. There is
// deliberately no write timeout: it would cut off long synchronous solves.
// On shutdown, in-flight requests get serveDrainTimeout to finish. They are
// variables only so that tests can lower them.
var (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
	serveDrainTimeout      = 30 * time.Second
)

// runServe starts the placement service: every solver of the registry
// behind POST /v1/solve, with async job handles for large instances and an
// LRU result cache for repeated seeded requests. With -peers it becomes
// one replica of a sharded cluster: solves route by instance hash to the
// owning replica, -journal persists results across restarts, and -quota
// rate-limits each API key. SIGINT or SIGTERM stops it gracefully: the
// listener closes, in-flight requests drain, and only then do the server's
// pool and the replica's journal close.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "size of the one worker pool that runs every solve, sync or async (0 = one per CPU)")
	cache := fs.Int("cache", 256, "result-cache capacity in entries (0 disables)")
	batch := fs.Int("batch", 0, "max computations coalesced per batch (0 = default)")
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
	cfg.DisableBatching = *noBatch

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *peers == "" && *journal == "" && *quota == "" {
		srv := server.New(cfg)
		defer srv.Close()
		fmt.Printf("wmnplace: serving on http://%s (solvers: %v)\n", ln.Addr(), server.Kinds())
		return serveUntil(ctx, ln, srv)
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
	return serveUntil(ctx, ln, node)
}

// serveUntil serves h on ln until ctx is done, then stops accepting
// connections and waits up to serveDrainTimeout for in-flight requests to
// finish; connections still open after that are closed. It returns nil
// after a complete drain.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.WithoutCancel(ctx), serveDrainTimeout)
	defer cancel()
	err := hs.Shutdown(drain)
	if err != nil {
		hs.Close()
		err = fmt.Errorf("drain: %w", err)
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}
