package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// answer is the first response a triple received, and whether any later
// response to it differed.
type answer struct {
	digest  [16]byte
	metrics wmn.Metrics
	evals   int
	bad     string // why the triple failed verification; "" while it holds
}

// answers is every triple's first answer across all set-ups and windows of
// a run. Identical triples must get byte-identical result bytes on every
// path: LRU hit, store hit, forwarded or dedup-wait.
type answers struct {
	mu sync.Mutex
	m  map[int]*answer
}

func newAnswers() *answers { return &answers{m: map[int]*answer{}} }

// record checks one response's result bytes against triple t's first
// answer and reports whether it held.
func (a *answers) record(t int, result []byte) bool {
	h := fnv.New128a()
	h.Write(result)
	var d [16]byte
	h.Sum(d[:0])

	a.mu.Lock()
	defer a.mu.Unlock()
	if prev := a.m[t]; prev != nil {
		if prev.digest == d {
			return true
		}
		a.failLocked(t, "result bytes differ from the triple's first answer")
		return false
	}
	var res struct {
		Metrics     wmn.Metrics `json:"metrics"`
		Evaluations int         `json:"evaluations"`
	}
	if err := json.Unmarshal(result, &res); err != nil {
		a.failLocked(t, "undecodable result: "+err.Error())
		return false
	}
	a.m[t] = &answer{digest: d, metrics: res.Metrics, evals: res.Evaluations}
	return true
}

// fail marks triple t failed, keeping the first reason given.
func (a *answers) fail(t int, why string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failLocked(t, why)
}

func (a *answers) failLocked(t int, why string) {
	if prev := a.m[t]; prev != nil {
		if prev.bad == "" {
			prev.bad = why
		}
		return
	}
	a.m[t] = &answer{bad: why}
}

// badTriples returns the failed triples with the reason for each.
func (a *answers) badTriples() map[int]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[int]string{}
	for t, ans := range a.m {
		if ans.bad != "" {
			out[t] = ans.bad
		}
	}
	return out
}

// fingerprint is results_fp: FNV-1a over the result digests of triples
// 0..n-1 in triple order. It is "" when a run answered fewer of them.
func (a *answers) fingerprint(n int) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := fnv.New64a()
	for t := 0; t < n; t++ {
		ans := a.m[t]
		if ans == nil {
			return ""
		}
		h.Write(ans.digest[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcome is one window request as the client saw it. Times are
// nanoseconds since the window's epoch.
type outcome struct {
	req, triple int
	ok          bool
	send, end   int64
	rm          server.RequestMetrics
}

// latency is the client-visible latency, from send to the body read.
func (o outcome) latency() int64 { return o.end - o.send }

// generator sends a plan's requests to a service and checks each answer.
type generator struct {
	plan  *plan
	set   *instanceSet
	svc   *service
	ans   *answers
	tr    *tracer // nil in untraced windows
	epoch time.Time
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// send posts triple t to a front door and verifies the response; tag names
// the request for the tracing wrappers.
func (g *generator) send(t, door int, tag string) (server.RequestMetrics, bool) {
	req, err := http.NewRequest("POST", g.svc.doors[door]+"/v1/solve", bytes.NewReader(g.plan.body(g.set, t)))
	if err != nil {
		return server.RequestMetrics{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, tag)
	resp, err := g.svc.client.Do(req)
	if err != nil {
		return server.RequestMetrics{}, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return server.RequestMetrics{}, false
	}
	var env server.SolveResponse
	if err := json.Unmarshal(data, &env); err != nil {
		return server.RequestMetrics{}, false
	}
	return env.RequestMetrics, g.ans.record(t, env.Result)
}

func (g *generator) do(i int) outcome {
	t, door := g.plan.request(i)
	o := outcome{req: i, triple: t, send: g.now()}
	o.rm, o.ok = g.send(t, door, requestTag(i))
	o.end = g.now()
	return o
}

// warm solves the set-up triples through the front doors, maxInFlight at
// a time, and fails on any failed request.
func (g *generator) warm(n int) error {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for range maxInFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int(next.Add(1) - 1); t < n; t = int(next.Add(1) - 1) {
				door := 0
				if g.plan.w.cluster {
					door = t % 2
				}
				if _, ok := g.send(t, door, "setup"); !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f > 0 {
		return fmt.Errorf("set-up: %d of %d requests failed", f, n)
	}
	return nil
}

// parts is how many equal sub-windows a window is cut into. The
// end-to-end metrics are computed per part and reported as the median of
// the parts, so a stall of the shared machine that spoils one or two parts
// does not move the figure.
const parts = 5

// mark is the process's CPU and allocation counters at one part boundary,
// beside the machine's CPU time stolen by its hypervisor (-1 where
// /proc/stat is unreadable), printed to explain a slow part.
type mark struct {
	at    int64 // ns since the window epoch
	cpu   time.Duration
	alloc uint64
	steal time.Duration
}

func (g *generator) mark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{at: g.now(), cpu: cpuTime(), alloc: ms.TotalAlloc, steal: stealTime()}
}

// stealTime is the machine's cumulative steal time from /proc/stat, summed
// over CPUs, or -1 when it cannot be read.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// window is what one measured window produced.
type window struct {
	outs      []outcome
	marks     []mark // parts+1 boundaries, from the window's start to its end
	heapInuse uint64
	before    []server.MetricsSnapshot
	after     []server.MetricsSnapshot
	// goroutines is the peak goroutine count, sampled in traced windows.
	goroutines int
}

// part returns the part a request completed in.
func (w *window) part(o outcome) int {
	p := 0
	for p < parts-1 && o.end >= w.marks[p+1].at {
		p++
	}
	return p
}

// run measures one window of the given length: maxInFlight clients in a
// closed loop, each sending its next request when the last one returns.
func (g *generator) run(seconds int) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = g.svc.metrics(); err != nil {
		return nil, err
	}
	var peak atomic.Int64
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	if g.tr != nil {
		sampling.Add(1)
		go func() {
			defer sampling.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					if n := int64(runtime.NumGoroutine()); n > peak.Load() {
						peak.Store(n)
					}
				}
			}
		}()
	}

	length := time.Duration(seconds) * time.Second
	g.epoch = time.Now()
	if g.tr != nil {
		g.tr.epoch = g.epoch // before activation: wrappers read it only once active
		g.tr.active.Store(true)
	}
	w.marks = []mark{g.mark()}
	var marking sync.WaitGroup
	marking.Add(1)
	go func() {
		defer marking.Done()
		for k := 1; k < parts; k++ {
			time.Sleep(time.Duration(k)*length/parts - time.Since(g.epoch))
			m := g.mark()
			w.marks = append(w.marks, m)
		}
	}()
	g.closedLoop(w, length)
	marking.Wait()
	w.marks = append(w.marks, g.mark())
	if g.tr != nil {
		g.tr.active.Store(false)
	}

	close(stopSampling)
	sampling.Wait()
	w.goroutines = int(peak.Load())
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapInuse = ms.HeapInuse
	if w.after, err = g.svc.metrics(); err != nil {
		return nil, err
	}
	sort.Slice(w.outs, func(i, j int) bool { return w.outs[i].req < w.outs[j].req })
	return w, nil
}

func (g *generator) closedLoop(w *window, length time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range maxInFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var outs []outcome
			for time.Since(g.epoch) < length {
				outs = append(outs, g.do(int(next.Add(1)-1)))
			}
			mu.Lock()
			w.outs = append(w.outs, outs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// cpuTime is the process's user+system CPU time so far. Getrusage fails
// only on an invalid argument, which these constants rule out.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
