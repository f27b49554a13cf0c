package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"meshplace/internal/cluster"
	"meshplace/internal/server"
)

// clusterPeers are the replicas' logical URLs. The ring hashes these
// strings, so fixed names (rather than the listeners' ephemeral ports) keep
// the instance-to-replica split identical in every run: these two names
// give the seven base instances a 4:3 split. A dialer maps each name to its
// loopback listener.
var clusterPeers = []string{"http://r1", "http://r2"}

// service is one set-up of a workload's system under test: the replicas
// behind real loopback listeners, and the HTTP client the generator drives
// their front doors with.
type service struct {
	doors    []string // front-door base URLs, indexed by door
	client   *http.Client
	forward  *http.Transport // the replicas' forwarding transport
	https    []*http.Server
	serving  sync.WaitGroup
	servers  []*server.Server
	nodes    []*cluster.Node
	journals []*cluster.Journal
	// journalPaths and dir outlive Close: the traced run reopens the
	// journals after the window to time a replay.
	journalPaths []string
	dir          string
}

// startService starts the workload's replicas. With tr non-nil every
// replica's handler, and every journal, sits behind a span-recording
// wrapper.
func startService(w *workload, tr *tracer) (*service, error) {
	s := &service{}
	var lns []net.Listener
	fail := func(err error) (*service, error) {
		for _, ln := range lns {
			ln.Close()
		}
		s.Close()
		s.Remove()
		return nil, err
	}
	n := 1
	if w.cluster {
		n = len(clusterPeers)
	}
	addrs := map[string]string{}
	for i := range n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("listen: %w", err))
		}
		lns = append(lns, ln)
		if w.cluster {
			addrs[clusterPeers[i][len("http://"):]+":80"] = ln.Addr().String()
			s.doors = append(s.doors, clusterPeers[i])
		} else {
			s.doors = append(s.doors, "http://"+ln.Addr().String())
		}
	}
	s.client = &http.Client{Transport: newTransport(addrs)}

	handlers := make([]http.Handler, n)
	if w.cluster {
		dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "journals-")
		if err != nil {
			return fail(fmt.Errorf("journal dir: %w", err))
		}
		s.dir = dir
		s.forward = newTransport(addrs)
		for i, self := range clusterPeers {
			path := filepath.Join(dir, fmt.Sprintf("r%d.journal", i+1))
			j, err := cluster.OpenJournal(path)
			if err != nil {
				return fail(err)
			}
			s.journals = append(s.journals, j)
			s.journalPaths = append(s.journalPaths, path)
			cfg := server.DefaultConfig()
			cfg.Store = j
			if tr != nil {
				cfg.Store = tracedStore{next: j, replica: i, tr: tr}
			}
			node, err := cluster.New(cluster.Config{
				SelfURL: self,
				Peers:   clusterPeers,
				Server:  cfg,
				Client:  &http.Client{Transport: s.forward, Timeout: 60 * time.Second},
			})
			if err != nil {
				return fail(err)
			}
			s.nodes = append(s.nodes, node)
			handlers[i] = node
		}
	} else {
		srv := server.New(server.DefaultConfig())
		s.servers = append(s.servers, srv)
		handlers[0] = srv
	}

	for i, ln := range lns {
		h := handlers[i]
		if tr != nil {
			h = tracedHandler{next: h, replica: i, tr: tr}
		}
		hs := &http.Server{Handler: h}
		s.https = append(s.https, hs)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			// Serve returns http.ErrServerClosed once Close runs.
			_ = hs.Serve(ln)
		}()
	}
	return s, nil
}

// newTransport is the generator's and the replicas' HTTP transport: keep-
// alive connections, at most maxInFlight per host, and logical cluster
// host names dialed at their loopback listeners.
func newTransport(addrs map[string]string) *http.Transport {
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: maxInFlight,
		MaxConnsPerHost:     maxInFlight,
		DisableCompression:  true,
	}
}

// Close stops the listeners, waits for their serve loops, then drains the
// replicas and closes the journals. The journal files stay until Remove.
func (s *service) Close() {
	for _, hs := range s.https {
		hs.Close()
	}
	s.serving.Wait()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.forward != nil {
		s.forward.CloseIdleConnections()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for _, j := range s.journals {
		j.Close()
	}
}

// Remove deletes the set-up's journal directory.
func (s *service) Remove() error {
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// metrics fetches every replica's GET /v1/metrics.
func (s *service) metrics() ([]server.MetricsSnapshot, error) {
	out := make([]server.MetricsSnapshot, len(s.doors))
	for i, door := range s.doors {
		resp, err := s.client.Get(door + "/v1/metrics")
		if err != nil {
			return nil, fmt.Errorf("GET /v1/metrics: %w", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errors.New(resp.Status)
		}
		if err != nil {
			return nil, fmt.Errorf("GET /v1/metrics: %w", err)
		}
	}
	return out, nil
}
