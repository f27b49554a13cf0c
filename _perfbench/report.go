package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"meshplace/internal/server"
)

// report turns measured windows into named metrics, printing each with its
// unit and sample count, and tallies the operations attempted and failed.
type report struct {
	defs              map[string]string // unit by metric name, from BENCHMARK.json
	bad               map[int]string    // triples that failed verification
	attempted, failed int
	spans             []span
}

func (r *report) print(name string, v float64, note string) {
	unit := r.defs[name]
	if name == "error_rate" {
		unit = "ratio"
	}
	fmt.Printf("  %-32s %14s %-6s %s\n", name, strconv.FormatFloat(v, 'g', 6, 64), unit, note)
}

// endToEnd computes the user-visible metrics of one window. A request
// fails on a transport error, a non-200 status, or an answer that failed
// verification; only successful requests have a latency. Throughput,
// latency, CPU and allocation are computed per part of the window and
// reported as the median over the parts.
func (r *report) endToEnd(label string, m *measured) map[string]float64 {
	win := m.win
	lat := make([][]int64, parts)
	failed := 0
	for _, o := range win.outs {
		if o.ok && r.bad[o.triple] == "" {
			p := win.part(o)
			lat[p] = append(lat[p], o.latency())
		} else {
			failed++
		}
	}
	attempted, completed := len(win.outs), 0
	var rps, p50, p99, cpu, alloc []float64
	for p := range parts {
		a, b := win.marks[p], win.marks[p+1]
		n := len(lat[p])
		completed += n
		sortInts(lat[p])
		rps = append(rps, float64(n)/time.Duration(b.at-a.at).Seconds())
		p50 = append(p50, ms(pct(lat[p], 50)))
		p99 = append(p99, ms(pct(lat[p], 99)))
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/1e3/float64(max(n, 1)))
		alloc = append(alloc, float64(b.alloc-a.alloc)/1024/float64(max(n, 1)))
	}
	r.attempted += attempted
	r.failed += failed
	e := map[string]float64{
		"setup_s":          median(m.setups),
		"req_per_s":        median(rps),
		"latency_p50_ms":   median(p50),
		"latency_p99_ms":   median(p99),
		"cpu_ms_per_req":   median(cpu),
		"alloc_kb_per_req": median(alloc),
		"heap_live_mb":     float64(win.heapInuse) / 1e6,
		"error_rate":       float64(failed) / float64(max(attempted, 1)),
	}
	elapsed := time.Duration(win.marks[parts].at)
	fmt.Printf("%s: attempted=%d completed=%d failed=%d in %.3f s, %d parts\n", label, attempted, completed, failed, elapsed.Seconds(), parts)
	each := func(xs []float64) string {
		out := "parts:"
		for _, x := range xs {
			out += " " + strconv.FormatFloat(x, 'g', 5, 64)
		}
		return out
	}
	counts := "n per part:"
	for p := range parts {
		counts += fmt.Sprintf(" %d (%d above p99)", len(lat[p]), len(lat[p])-(99*len(lat[p])+99)/100)
	}
	setups := "median of set-ups:"
	for _, s := range m.setups {
		setups += fmt.Sprintf(" %.4f", s)
	}
	r.print("setup_s", e["setup_s"], setups)
	r.print("req_per_s", e["req_per_s"], each(rps))
	r.print("latency_p50_ms", e["latency_p50_ms"], each(p50))
	r.print("latency_p99_ms", e["latency_p99_ms"], each(p99)+"; "+counts)
	r.print("error_rate", e["error_rate"], fmt.Sprintf("%d of %d", failed, attempted))
	r.print("cpu_ms_per_req", e["cpu_ms_per_req"], each(cpu))
	r.print("alloc_kb_per_req", e["alloc_kb_per_req"], each(alloc))
	r.print("heap_live_mb", e["heap_live_mb"], "HeapInuse after GC at the window's end")
	steal := "machine CPU stolen by the hypervisor, share per part:"
	for p := range parts {
		a, b := win.marks[p], win.marks[p+1]
		if a.steal < 0 || b.steal < 0 {
			steal += " n/a"
			continue
		}
		steal += fmt.Sprintf(" %.3f", float64(b.steal-a.steal)/float64(time.Duration(b.at-a.at))/float64(runtime.NumCPU()))
	}
	fmt.Println(steal)
	return e
}

// perLayer computes the traced run's per-layer metrics. Metrics of a layer
// the workload never reaches read 0 and are marked n/a.
func (r *report) perLayer(w *workload, p *plan, traced *measured, tracedE2E, plainE2E map[string]float64, tr *tracer, ls *layerSamples) map[string]float64 {
	win := traced.win
	m := map[string]float64{}
	notes := map[string]string{}
	// A metric with no samples belongs to a layer this workload never
	// reaches: it reads 0 and is marked n/a.
	count := func(name string, n int, format string, args ...any) {
		notes[name] = fmt.Sprintf(format, args...)
		if n == 0 {
			notes[name] = "n/a: not exercised by this workload"
		}
	}
	p50 := func(name string, xs []int64, scale float64) {
		sortInts(xs)
		m[name] = float64(pct(xs, 50)) / scale
		count(name, len(xs), "p50, n=%d", len(xs))
	}
	medianOf := func(name string, xs []float64) {
		m[name] = median(xs)
		count(name, len(xs), "median, n=%d", len(xs))
	}

	p50("wmn.apply_revert_us", ls.applyRevert, 1e3)
	m["wmn.apply_allocs"] = ls.applyAllocs
	count("wmn.apply_allocs", ls.allocPairs, "mallocs per pair, n=%d", ls.allocPairs)
	p50("wmn.evaluate_us", ls.evaluate, 1e3)
	p50("wmn.new_evaluator_us", ls.newEval, 1e3)
	p50("localsearch.propose_us.swap", ls.propose["swap"], 1e3)
	p50("localsearch.propose_us.perturb", ls.propose["perturb"], 1e3)
	p50("localsearch.phase_ms", ls.phase, 1e6)
	p50("ga.barrier_ms", ls.barrier, 1e6)
	p50("server.portfolio_slice_ms", ls.slice, 1e6)
	m["experiments.goroutines_peak"] = float64(win.goroutines)
	notes["experiments.goroutines_peak"] = "runtime.NumGoroutine sampled every 1 ms"
	p50("server.backend_ms", ls.backend, 1e6)
	medianOf("server.evals_per_req", ls.evals)
	medianOf("server.us_per_eval", ls.usPerEval)

	// requestMetrics of the requests whose answer was computed (alone or
	// as a dedup waiter), and of every request.
	var qw, build, solve, total []int64
	var totalPerSolve []float64
	for _, o := range win.outs {
		if !o.ok {
			continue
		}
		total = append(total, o.rm.TotalNs)
		if o.rm.CachePath != server.CacheMiss && o.rm.CachePath != server.CacheDedupWait {
			continue
		}
		qw = append(qw, o.rm.QueueWaitNs)
		build = append(build, o.rm.BatchBuildNs)
		solve = append(solve, o.rm.SolveNs)
		if o.rm.SolveNs > 0 {
			totalPerSolve = append(totalPerSolve, float64(o.rm.TotalNs)/float64(o.rm.SolveNs))
		}
	}
	sortInts(qw)
	m["server.queue_wait_ms.p50"] = ms(pct(qw, 50))
	m["server.queue_wait_ms.p99"] = ms(pct(qw, 99))
	count("server.queue_wait_ms.p50", len(qw), "computed requests, n=%d", len(qw))
	count("server.queue_wait_ms.p99", len(qw), "computed requests, n=%d", len(qw))
	p50("server.batch_build_us", build, 1e3)
	p50("server.solve_ms", solve, 1e6)
	p50("server.total_ms", total, 1e6)

	var d server.MetricsSnapshot
	for i := range win.after {
		a, b := win.after[i], win.before[i]
		d.Requests += a.Requests - b.Requests
		d.CacheHits += a.CacheHits - b.CacheHits
		d.StoreHits += a.StoreHits - b.StoreHits
		d.DedupWaits += a.DedupWaits - b.DedupWaits
		d.Computations += a.Computations - b.Computations
		d.Batches += a.Batches - b.Batches
		d.BatchFlushTimeout += a.BatchFlushTimeout - b.BatchFlushTimeout
		d.Forwarded += a.Forwarded - b.Forwarded
		d.ForwardFails += a.ForwardFails - b.ForwardFails
	}
	share := func(name string, num, den int64) {
		m[name] = ratio(float64(num), float64(den))
		count(name, int(den), "%d / %d, /v1/metrics delta", num, den)
	}
	share("server.batch_size_mean", d.Computations, d.Batches)
	share("server.computations_per_req", d.Computations, d.Requests)
	share("server.hit_share", d.CacheHits, d.Requests)
	share("server.store_hit_share", d.StoreHits, d.Requests)
	share("server.dedup_share", d.DedupWaits, d.Requests)
	share("server.flush_timeout_share", d.BatchFlushTimeout, d.Batches)
	share("cluster.forward_share", d.Forwarded, d.Requests)
	m["cluster.forward_fails"] = float64(d.ForwardFails)
	count("cluster.forward_fails", int(d.Forwarded), "of %d forwards", d.Forwarded)

	st := tr.analyze(win.outs, func(i int) int { _, door := p.request(i); return door },
		func(i int) string { t, _ := p.request(i); return p.key(traced.set, t) })
	r.spans = st.spans
	p50("server.handler_ms", st.handlerNs, 1e6)
	p50("server.http_ms", st.httpNs, 1e6)
	p50("cluster.hop_ms", st.hopNs, 1e6)
	p50("cluster.journal_put_us", st.putNs, 1e3)
	p50("cluster.journal_get_us", st.getNs, 1e3)
	m["cluster.journal_replay_ms"] = ms(int64(ls.journalReplay))
	m["cluster.journal_mb"] = float64(ls.journalBytes) / 1e6
	journals := len(traced.svc.journalPaths)
	count("cluster.journal_replay_ms", journals, "reopen of %d journals, %d records", journals, ls.journalEntries)
	count("cluster.journal_mb", journals, "%d journal files", journals)
	if w.cluster {
		if want := journaled(win, w); ls.journalEntries != want {
			fmt.Printf("verify: journals replayed %d records, want one per computed triple: %d\n", ls.journalEntries, want)
			r.failed++
		}
	}

	m["bench.trace_overhead"] = ratio(tracedE2E["req_per_s"], plainE2E["req_per_s"])
	notes["bench.trace_overhead"] = fmt.Sprintf("traced / untraced req_per_s; latency_p50 %.4g / %.4g ms",
		tracedE2E["latency_p50_ms"], plainE2E["latency_p50_ms"])

	m["ratio.propose_per_apply"] = ratio(m["localsearch.propose_us.swap"], m["wmn.apply_revert_us"])
	count("ratio.propose_per_apply", len(ls.applyRevert), "swap propose / apply+revert p50s")
	m["ratio.eval_per_apply"] = ratio(m["server.us_per_eval"], m["wmn.apply_revert_us"])
	count("ratio.eval_per_apply", len(ls.applyRevert), "server.us_per_eval / apply+revert p50")
	medianOf("ratio.solve_per_backend", ls.solvePerBackend)
	medianOf("ratio.total_per_solve", totalPerSolve)
	medianOf("ratio.client_per_handler", st.clientPer)

	fmt.Printf("per-layer (traced window, then replays of its first %d new triples):\n", replayTriples)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.print(name, m[name], notes[name])
	}
	fmt.Printf("self time by span (p50 ms; %d spans could not be attached to a handler):\n", st.orphans)
	kinds := make([]string, 0, len(st.byName))
	for k := range st.byName {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		durs, self := st.byName[k][0], st.byName[k][1]
		sortInts(durs)
		sortInts(self)
		fmt.Printf("  %-14s n=%-6d duration %10.4f  self %10.4f\n", k, len(durs), ms(pct(durs, 50)), ms(pct(self, 50)))
	}
	fmt.Printf("trace overhead: traced/untraced req_per_s = %.4f\n", m["bench.trace_overhead"])
	return m
}

// journaled is how many records the traced set-up's journals must hold:
// one per triple computed, the set-up triples plus the window's writes.
func journaled(win *window, w *workload) int {
	seen := map[int]bool{}
	for _, o := range win.outs {
		if o.ok && o.triple >= w.setupTriples {
			seen[o.triple] = true
		}
	}
	return w.setupTriples + len(seen)
}

func sortInts(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// pct is the nearest-rank percentile of an ascending slice; 0 when empty.
func pct(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (q*len(sorted) + 99) / 100
	return sorted[max(rank, 1)-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
