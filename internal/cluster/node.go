package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"meshplace/internal/server"
)

// forwardedHeader marks a request already routed once by a replica. The
// receiving replica always answers it locally — the loop guard that makes
// dispatch terminate even if two replicas momentarily disagree about ring
// membership — and skips quota (the front door already charged the key).
const forwardedHeader = "X-Meshplace-Forwarded"

// servedByHeader names the replica that executed a forwarded request, for
// observability; results themselves are byte-identical either way.
const servedByHeader = "X-Served-By"

// maxBodyBytes mirrors the serving layer's request-size bound: the front
// door buffers bodies to hash-route them, so it enforces the same cap
// (413 past it). A variable only so tests can stream a body one byte past
// a small bound.
var maxBodyBytes int64 = 64 << 20

// Config parameterizes a cluster Node.
type Config struct {
	// SelfURL is this replica's base URL as it appears in Peers (e.g.
	// "http://10.0.0.3:8080"). Required.
	SelfURL string
	// Peers is the full replica set, including SelfURL. Order does not
	// matter — every replica sorts the list, so any permutation yields
	// the same ring. Empty means a single-replica cluster of SelfURL.
	Peers []string
	// JournalPath, when non-empty, persists every computed result to an
	// append-only journal replayed on startup.
	JournalPath string
	// Quota enables per-key admission control on POST /v1/solve; the
	// zero value disables it.
	Quota QuotaConfig
	// Server configures the embedded placement service. NodeID and Store
	// are set by New (from SelfURL and JournalPath).
	Server server.Config
	// Client issues forwarded requests. nil selects a client with a 60s
	// timeout (solves forwarded synchronously can run long).
	Client *http.Client

	// now is injectable for quota tests.
	now func() time.Time
}

// Node is one replica of the sharded placement service: an http.Handler
// that fronts an embedded server.Server with consistent-hash dispatch,
// journal-backed durability and per-key quotas. Any replica answers any
// request: solves route to the replica owning the instance hash, job
// lookups route by the job ID's node prefix, and everything else is
// served locally.
type Node struct {
	cfg           Config
	self          string
	nodeID        string
	ring          *Ring
	peersByNodeID map[string]string
	srv           *server.Server
	journal       *Journal  // nil without JournalPath
	quota         *quotaSet // nil without Quota
	client        *http.Client
	mux           *http.ServeMux
}

// New builds a replica. The embedded server's job IDs carry this
// replica's node ID so peers can route job handles back here.
func New(cfg Config) (*Node, error) {
	if cfg.SelfURL == "" {
		return nil, errors.New("cluster: SelfURL is required")
	}
	peers := cfg.Peers
	if len(peers) == 0 {
		peers = []string{cfg.SelfURL}
	}
	ring, err := NewRing(peers)
	if err != nil {
		return nil, err
	}
	found := false
	byID := map[string]string{}
	for _, p := range ring.Peers() {
		byID[NodeIDFor(p)] = p
		if p == cfg.SelfURL {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: SelfURL %q is not in the peer list", cfg.SelfURL)
	}

	n := &Node{
		cfg:           cfg,
		self:          cfg.SelfURL,
		nodeID:        NodeIDFor(cfg.SelfURL),
		ring:          ring,
		peersByNodeID: byID,
		client:        cfg.Client,
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 60 * time.Second}
	}
	if cfg.JournalPath != "" {
		j, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		n.journal = j
	}
	if cfg.Quota.Enabled() {
		n.quota = newQuotaSet(cfg.Quota, cfg.now)
	}

	scfg := cfg.Server
	scfg.NodeID = n.nodeID
	if n.journal != nil {
		scfg.Store = n.journal
	}
	n.srv = server.New(scfg)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", n.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", n.handleJobEvents)
	mux.HandleFunc("GET /v1/cluster", n.handleCluster)
	mux.Handle("/", n.srv) // healthz, solvers, scenarios, metrics
	n.mux = mux
	return n, nil
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Server exposes the embedded placement service (for stats and tests).
func (n *Node) Server() *server.Server { return n.srv }

// Journal exposes the journal, nil when not configured.
func (n *Node) Journal() *Journal { return n.journal }

// NodeID returns this replica's cluster identity.
func (n *Node) NodeID() string { return n.nodeID }

// Close drains the embedded server and closes the journal.
func (n *Node) Close() {
	n.srv.Close()
	if n.journal != nil {
		n.journal.Close()
	}
}

// ClusterInfo is the payload of GET /v1/cluster.
type ClusterInfo struct {
	Self    string       `json:"self"`
	NodeID  string       `json:"nodeId"`
	Peers   []string     `json:"peers"`
	Journal *JournalInfo `json:"journal,omitempty"`
	QuotaOn bool         `json:"quotaEnabled"`
}

// JournalInfo is the JSON shape of the journal counters.
type JournalInfo struct {
	Entries        int   `json:"entries"`
	Replayed       int   `json:"replayed"`
	Appended       int   `json:"appended"`
	DiscardedBytes int64 `json:"discardedBytes"`
}

func (n *Node) handleCluster(w http.ResponseWriter, r *http.Request) {
	info := ClusterInfo{Self: n.self, NodeID: n.nodeID, Peers: n.ring.Peers(), QuotaOn: n.quota != nil}
	if n.journal != nil {
		st := n.journal.Stats()
		info.Journal = &JournalInfo{Entries: st.Entries, Replayed: st.Replayed, Appended: st.Appended, DiscardedBytes: st.DiscardedBytes}
	}
	writeJSON(w, http.StatusOK, info)
}

// apiKey extracts the quota key of a request; requests without an
// X-API-Key header share the anonymous bucket.
func apiKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

// handleSolve is the cluster front door of POST /v1/solve: charge the
// key's quota, resolve the instance, and route the request to the replica
// owning its hash — locally when that is this replica (or the request was
// already forwarded once), by forwarding otherwise. Remote-backend solves
// get special treatment (see the remote-kind guards below): they execute
// on the replica the client hit, never forward, and may not target the
// replica executing them.
func (n *Node) handleSolve(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(forwardedHeader) != ""
	remoteOrigin := r.Header.Get(remoteOriginHeader) != ""
	if n.quota != nil && !forwarded && !remoteOrigin {
		// Quota is charged once, at the replica the client hit; forwarded
		// requests were already charged there, and remote-originated ones
		// were charged when their outer request entered the cluster.
		if ok, retry := n.quota.allow(apiKey(r)); !ok {
			secs := int(retry/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests,
				map[string]string{"error": fmt.Sprintf("quota exceeded, retry in %ds", secs)})
			return
		}
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read request: " + err.Error()})
		return
	}

	var req server.SolveRequest
	parsed := decodeSolveRequest(body, &req)

	// The remote-kind loop guards. A remote solve occupies a solve worker
	// here while it waits on the target, so the target must be a different
	// replica: executing "remote:url=self" would have this replica block
	// one of its own workers on a request that needs another — recursion
	// at best, a wedged pool at worst — hence the 400. And a request a
	// remote backend itself dispatched may not carry another remote spec,
	// bounding every chain to one hop even across replicas.
	if parsed && req.Solver.Kind() == "remote" {
		if remoteOrigin {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": "remote-originated request carries a remote solver spec; remote backends do not chain"})
			return
		}
		if sameReplicaURL(req.Solver.Param("url"), n.self) {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("remote backend targets its own replica %s; point it at a peer", n.self)})
			return
		}
	}

	owner := n.self
	if !forwarded && !remoteOrigin && len(n.ring.Peers()) > 1 && (!parsed || req.Solver.Kind() != "remote") {
		// Remote solves skip hash routing: the real computation happens at
		// the target replica, so forwarding the proxy shell would add a hop
		// — and forwarding it to its own target would recreate the
		// self-target deadlock the guard above rejects. Remote-originated
		// requests answer locally for the same reason: the dispatching
		// backend chose this replica deliberately.
		if parsed {
			if hash, ok := n.routeKey(&req); ok {
				owner = n.ring.Owner(hash)
			}
		}
		// Requests the serving layer will reject (malformed JSON, invalid
		// instance) fall through with owner == self: the local server
		// produces the canonical error response.
	}

	if owner == n.self {
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		n.srv.ServeHTTP(w, r)
		return
	}
	n.forward(w, r, owner, "POST", "/v1/solve", body)
}

// decodeSolveRequest strictly decodes a front-door body; failures are left
// for the serving layer to diagnose.
func decodeSolveRequest(body []byte, req *server.SolveRequest) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(req) == nil
}

// routeKey resolves and hashes the request's instance — the key replicas
// shard on. Generated instances route by their generator config, embedded
// ones by their content, so identical requests land on the same replica
// no matter which replica the client hit.
func (n *Node) routeKey(req *server.SolveRequest) (string, bool) {
	in, err := n.srv.ResolveInstance(req)
	if err != nil {
		return "", false
	}
	return server.HashInstance(in), true
}

// sameReplicaURL reports whether a remote backend's target names this
// replica's own base URL (modulo trailing slashes). Aliases that resolve
// to the same listener can evade a string comparison; the one-hop bound
// enforced via remoteOriginHeader keeps even those from recursing.
func sameReplicaURL(target, self string) bool {
	return strings.TrimRight(target, "/") == strings.TrimRight(self, "/")
}

// ownerOfJob maps a job ID back to the replica that issued it via the
// ID's node prefix. IDs without a known prefix (or our own) resolve to
// this replica.
func (n *Node) ownerOfJob(id string) string {
	nodeID, _, ok := strings.Cut(id, "-job-")
	if !ok {
		return n.self
	}
	if peer, known := n.peersByNodeID[nodeID]; known {
		return peer
	}
	return n.self
}

func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := n.ownerOfJob(id)
	if owner == n.self || r.Header.Get(forwardedHeader) != "" {
		n.srv.ServeHTTP(w, r)
		return
	}
	n.forward(w, r, owner, "GET", "/v1/jobs/"+id, nil)
}

func (n *Node) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := n.ownerOfJob(id)
	if owner == n.self || r.Header.Get(forwardedHeader) != "" {
		n.srv.ServeHTTP(w, r)
		return
	}
	n.forwardStream(w, r, owner, "/v1/jobs/"+id+"/events")
}

// copiedHeaders are the response headers a forward relays to the client.
var copiedHeaders = []string{"Content-Type", "X-Cache", "Location", "Retry-After"}

// forward relays one buffered request to the owning peer and copies the
// response back. The forwarded request carries the loop-guard header, so
// the peer always answers it locally.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner, method, path string, body []byte) {
	req, err := http.NewRequestWithContext(r.Context(), method, owner+path, bytes.NewReader(body))
	if err != nil {
		n.srv.RecordForwarded(true)
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "forward: " + err.Error()})
		return
	}
	req.Header.Set(forwardedHeader, n.nodeID)
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if k := r.Header.Get("X-API-Key"); k != "" {
		req.Header.Set("X-API-Key", k)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.srv.RecordForwarded(true)
		writeJSON(w, http.StatusBadGateway,
			map[string]string{"error": fmt.Sprintf("forward to %s: %v", owner, err)})
		return
	}
	defer resp.Body.Close()
	n.srv.RecordForwarded(false)
	for _, h := range copiedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(servedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// forwardStream relays an SSE stream from the owning peer, flushing as
// events arrive so live progress is not buffered at the hop.
func (n *Node) forwardStream(w http.ResponseWriter, r *http.Request, owner, path string) {
	req, err := http.NewRequestWithContext(r.Context(), "GET", owner+path, nil)
	if err != nil {
		n.srv.RecordForwarded(true)
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "forward: " + err.Error()})
		return
	}
	req.Header.Set(forwardedHeader, n.nodeID)
	resp, err := n.client.Do(req)
	if err != nil {
		n.srv.RecordForwarded(true)
		writeJSON(w, http.StatusBadGateway,
			map[string]string{"error": fmt.Sprintf("forward to %s: %v", owner, err)})
		return
	}
	defer resp.Body.Close()
	n.srv.RecordForwarded(false)
	for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(servedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		nr, err := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
