package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"meshplace/internal/server"
)

// span is one timed interval of the traced run, recorded by the benchmark's
// own code around a call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Name    string `json:"name"`
	Req     int    `json:"req"` // window request index; -1 when unknown
	Replica int    `json:"replica"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Self    int64  `json:"selfNs"`
	// Key is the result key a Store span touched.
	Key string `json:"key,omitempty"`
	// Metrics is the response's requestMetrics, on the request's root span.
	Metrics *server.RequestMetrics `json:"requestMetrics,omitempty"`
}

// tracer keeps the traced window's spans in memory until the run ends.
type tracer struct {
	epoch  time.Time
	active atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// requestHeader carries the window request index on every request. The
// cluster front door relays X-API-Key on its forward hop (quotas are off,
// so the key is otherwise unused), which lets the owner's handler span
// name the request that caused it.
const requestHeader = "X-API-Key"

func requestTag(i int) string { return "r" + strconv.Itoa(i) }

func requestOf(r *http.Request) int {
	v := r.Header.Get(requestHeader)
	if len(v) < 2 || v[0] != 'r' {
		return -1
	}
	i, err := strconv.Atoi(v[1:])
	if err != nil {
		return -1
	}
	return i
}

// tracedHandler records one span per POST /v1/solve a replica serves.
type tracedHandler struct {
	next    http.Handler
	replica int
	tr      *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.active.Load() || r.URL.Path != "/v1/solve" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.add(span{Name: "handler", Req: requestOf(r), Replica: h.replica, Start: start, End: h.tr.now()})
}

// tracedStore records one span per journal Get and Put.
type tracedStore struct {
	next    server.ResultStore
	replica int
	tr      *tracer
}

func (s tracedStore) Get(key string) ([]byte, bool) {
	if !s.tr.active.Load() {
		return s.next.Get(key)
	}
	start := s.tr.now()
	b, ok := s.next.Get(key)
	s.tr.add(span{Name: "store.get", Req: -1, Replica: s.replica, Start: start, End: s.tr.now(), Key: key})
	return b, ok
}

func (s tracedStore) Put(key string, payload []byte) {
	if !s.tr.active.Load() {
		s.next.Put(key, payload)
		return
	}
	start := s.tr.now()
	s.next.Put(key, payload)
	s.tr.add(span{Name: "store.put", Req: -1, Replica: s.replica, Start: start, End: s.tr.now(), Key: key})
}

// traceStats is what the span tree yields for the per-layer metrics.
type traceStats struct {
	handlerNs []int64 // front-door handler spans
	httpNs    []int64 // client round trip − front-door handler span
	hopNs     []int64 // forwarded: front-door span − owner span
	clientPer []float64
	putNs     []int64
	getNs     []int64
	// byName holds each span name's durations and self times.
	byName  map[string][2][]int64
	orphans int
	spans   []span
}

// analyze links the window's spans into per-request trees and computes
// every span's self time: its duration minus the part of it its children
// cover. A request's tree is client → front-door handler → owner handler
// (forwarded requests only) → Store spans, which attach by replica, result
// key and containment.
func (t *tracer) analyze(outs []outcome, doorOf func(int) int, keyOf func(int) string) traceStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, o := range outs {
		if !o.ok {
			continue
		}
		rm := o.rm
		spans = append(spans, span{Name: "client", Req: o.req, Replica: doorOf(o.req), Start: o.send, End: o.end, Metrics: &rm})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		spans[i].ID = i + 1
	}

	type reqSpans struct{ client, door, owner int }
	byReq := map[int]*reqSpans{}
	get := func(req int) *reqSpans {
		r := byReq[req]
		if r == nil {
			r = &reqSpans{-1, -1, -1}
			byReq[req] = r
		}
		return r
	}
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		r := get(s.Req)
		switch {
		case s.Name == "client":
			r.client = i
		case s.Replica == doorOf(s.Req):
			r.door = i
		default:
			r.owner = i
		}
	}

	var st traceStats
	// executing[replica|key] lists the handler spans that ran a request's
	// solve path on that replica: the owner's when forwarded, else the
	// front door's.
	executing := map[string][]int{}
	for req, r := range byReq {
		if r.door >= 0 && r.client >= 0 {
			spans[r.door].Parent = spans[r.client].ID
			c, d := spans[r.client], spans[r.door]
			st.handlerNs = append(st.handlerNs, d.End-d.Start)
			st.httpNs = append(st.httpNs, (c.End-c.Start)-(d.End-d.Start))
			if d.End > d.Start {
				st.clientPer = append(st.clientPer, float64(c.End-c.Start)/float64(d.End-d.Start))
			}
		}
		exec := r.door
		if r.owner >= 0 {
			exec = r.owner
			if r.door >= 0 {
				spans[r.owner].Parent = spans[r.door].ID
				d, o := spans[r.door], spans[r.owner]
				st.hopNs = append(st.hopNs, (d.End-d.Start)-(o.End-o.Start))
			}
		}
		if exec >= 0 {
			k := strconv.Itoa(spans[exec].Replica) + "|" + keyOf(req)
			executing[k] = append(executing[k], exec)
		}
	}
	for i, s := range spans {
		if s.Name != "store.get" && s.Name != "store.put" {
			continue
		}
		if s.Name == "store.get" {
			st.getNs = append(st.getNs, s.End-s.Start)
		} else {
			st.putNs = append(st.putNs, s.End-s.Start)
		}
		parent := -1
		for _, h := range executing[strconv.Itoa(s.Replica)+"|"+s.Key] {
			if spans[h].Start <= s.Start && s.End <= spans[h].End && (parent < 0 || spans[h].Start > spans[parent].Start) {
				parent = h
			}
		}
		if parent < 0 {
			st.orphans++
			continue
		}
		spans[i].Parent = spans[parent].ID
		spans[i].Req = spans[parent].Req
	}

	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], i)
		}
	}
	st.byName = map[string][2][]int64{}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s, spans, children[i])
		e := st.byName[s.Name]
		e[0] = append(e[0], s.End-s.Start)
		e[1] = append(e[1], s.Self)
		st.byName[s.Name] = e
	}
	st.spans = spans
	return st
}

// covered returns how much of parent's interval the children's intervals
// cover, counting overlaps once.
func covered(parent *span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans dumps the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
